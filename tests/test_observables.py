import gc
import math
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from catspin.dicke import (
    EnsembleDims,
    SpinState,
    apply_rotation,
    basis_state,
    css_state,
)
from catspin.observables import (
    Fringe,
    central_fringe_fwhm,
    default_phi_window,
    excess_noise_crossover,
    excess_noise_curve,
    expect_jz,
    fringe_scan,
    noise_model_table,
    parity_average,
    pool_size,
    sensitivity_at,
    sensitivity_scan_mu,
    variance_jz,
)
from catspin.observables import _merge, _moments
from catspin.dicke import dark_pulse, rotate_pulse, squeeze_pulse
from catspin.protocols import (
    Detection,
    ProtocolParams,
    ProtocolSpec,
    PROTOCOL_IDS,
    builtin,
    compile_protocol,
    oracle_run,
    run,
)

import catspin.dicke as dicke
import catspin.observables as observables
from conftest import cached_ops, slab_rows, traced_peak_mib, unfolded

HALF = np.pi / 2


def scain(**kw):
    defaults = dict(mu=HALF, ara="x", xi=-1)
    defaults.update(kw)
    return builtin("scain", ProtocolParams(**defaults))


class TestExpectations:
    def test_crain_signal_law(self, dims40, ops40):
        spec = builtin("crain")
        for phi in (0.3, 1.1, 2.5):
            state = run(spec, dims40, ops40, phi)
            assert expect_jz(state) == pytest.approx(-20 * np.cos(phi), abs=1e-11)

    def test_scain_even_signal_and_noise_laws(self, dims40, ops40):
        spec = scain()
        for phi in (0.004, 0.013, 0.030):
            state = run(spec, dims40, ops40, phi)
            assert expect_jz(state) == pytest.approx(-20 * np.cos(40 * phi), abs=1e-11)
            sds = math.sqrt(variance_jz(state))
            assert sds == pytest.approx(20 * abs(np.sin(40 * phi)), abs=1e-9)

    def test_variance_nonnegative_on_eigenstate(self, dims40):
        assert variance_jz(basis_state(dims40, 7)) == 0.0

    @pytest.mark.parametrize("n", [40, 4000])
    def test_variance_of_a_narrow_css(self, n):
        # N/4 sin^2(theta) is 1e-6/N of <J_z>^2 here, which an uncentered sum cancels
        theta = 1e-3
        state = css_state(EnsembleDims(n), theta, 0.0)
        assert variance_jz(state) == pytest.approx(n / 4 * math.sin(theta) ** 2, rel=1e-12)


class TestCollective:
    def test_distribution_frozen_between_cat_stages(self, dims40, ops40):
        # the twist is diagonal, the dark zones are diagonal, and the pi
        # pulse mirrors the symmetric cat, so the populations sit fixed on
        # the two extremal states from the auxiliary rotation up to the
        # corrective one
        spec = scain()
        reference = None
        for n_pulses in (4, 5, 6):  # stages D, E, F
            state = run(spec, dims40, ops40, np.pi / 80, n_pulses=n_pulses)
            dist = state.populations()
            if reference is None:
                reference = dist
            assert np.max(np.abs(dist - reference)) < 1e-12
        assert reference[0] == pytest.approx(0.5, abs=1e-12)
        assert reference[40] == pytest.approx(0.5, abs=1e-12)

    def test_scain_even_csd_law(self, dims40, ops40):
        spec = scain()
        for phi in (0.007, 0.021):
            state = run(spec, dims40, ops40, phi)
            assert state.populations()[0] == pytest.approx(np.cos(40 * phi / 2) ** 2, abs=1e-12)

    def test_equal_extremal_populations_at_half_fringe(self, dims40, ops40):
        state = run(scain(), dims40, ops40, np.pi / 80)
        assert state.populations()[0] == pytest.approx(0.5, abs=1e-12)
        assert state.populations()[40] == pytest.approx(0.5, abs=1e-12)

    def test_odd_n_extremal_states_empty(self, dims41, ops41):
        state = run(scain(), dims41, ops41, np.pi / 4)
        assert state.populations()[0] < 2e-3
        assert state.populations()[41] < 2e-3

    def test_distribution_sums_to_one(self, dims41, ops41):
        state = run(scain(), dims41, ops41, 0.3)
        assert np.sum(state.populations()) == pytest.approx(1.0, abs=1e-12)


class TestFringeScan:
    def test_cosac_closed_form(self):
        for n in (3, 12, 100):
            ops = cached_ops(n)
            spec = builtin("cosac")
            phis = np.linspace(-np.pi, np.pi, 41)
            fringe = fringe_scan(spec, ops.dims, ops, phis)
            assert fringe.signal == pytest.approx(
                np.cos(fringe.phi / 2) ** (2 * n), abs=1e-9
            )

    def test_cac_closed_form(self):
        for n in (5, 40, 100):
            ops = cached_ops(n)
            spec = builtin("cac")
            fringe = fringe_scan(spec, ops.dims, ops, np.linspace(-2.0, 2.0, 21))
            assert fringe.signal == pytest.approx(
                n * np.cos(fringe.phi / 2) ** 2, abs=1e-9
            )

    def test_scain_period_and_zero_crossings(self, dims40, ops40):
        period = 2 * np.pi / 40
        phis = np.linspace(-np.pi / 20, np.pi / 20, 401)
        signal = fringe_scan(scain(), dims40, ops40, phis).signal
        shifted = fringe_scan(scain(), dims40, ops40, phis + period)
        assert np.max(np.abs(signal - shifted.signal)) < 1e-9
        crossings = np.sum(np.diff(np.sign(signal)) != 0)
        assert crossings == 4

    def test_columns_are_read_only_copies(self, dims40, ops40):
        phis = np.linspace(-0.1, 0.1, 5)
        fringe = fringe_scan(scain(), dims40, ops40, phis)
        for column in (fringe.phi, fringe.signal, fringe.sds, fringe.pgs):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        phis[0] = 1.0  # the caller's grid is not the fringe's
        assert fringe.phi[0] == -0.1

    def test_sweep_columns_are_read_only_copies(self, dims40, ops40):
        mus = np.array([0.0, 0.3])
        sweep = sensitivity_scan_mu(scain(), dims40, ops40, mus, default_phi_window(11))
        for column in (sweep.mu, sweep.lam, sweep.phi_star):
            assert column.dtype == float and column.shape == (2,)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        mus[0] = 1.0  # the caller's grid is not the sweep's
        assert sweep.mu[0] == 0.0

    def test_rejects_unsorted_grid(self, dims40, ops40):
        with pytest.raises(ValueError):
            fringe_scan(scain(), dims40, ops40, np.array([0.2, 0.1]))

    @pytest.mark.parametrize("index, error, match", [
        (None, ValueError, "without a collective-state index"),
        (41, IndexError, "csd index 41 outside"),
    ], ids=["unset", "past-n"])
    def test_rejects_bad_csd_index(self, dims40, ops40, index, error, match):
        # a custom spec: builtin() would fill an unset index
        spec = ProtocolSpec("custom", builtin("cosac").pulses, Detection("csd", index=index))
        with pytest.raises(error, match=match) as raised:
            fringe_scan(spec, dims40, ops40, np.array([0.1]))
        assert raised.type is error

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    @pytest.mark.parametrize("phis", [[0.1], []])
    def test_rejects_non_finite_mu_override(self, dims40, ops40, mu, phis):
        with pytest.raises(ValueError, match="must be finite"):
            fringe_scan(scain(), dims40, ops40, np.array(phis), mu_override=mu)

    def test_thread_count_does_not_change_values(self, dims40, ops40):
        # the scan has no worker pool; repeated calls are bit-identical
        phis = np.linspace(-0.1, 0.1, 600)
        one = fringe_scan(scain(), dims40, ops40, phis)
        two = fringe_scan(scain(), dims40, ops40, phis)
        assert all(np.array_equal(getattr(one, name), getattr(two, name))
                   for name in ("signal", "sds", "pgs"))


class TestSensitivity:
    def test_crain_at_sql(self, dims40, ops40):
        lam = sensitivity_at(builtin("crain"), dims40, ops40, 0.45)
        assert lam == pytest.approx(math.sqrt(40), rel=1e-6)

    def test_cd_scain_at_hl(self, dims40, ops40):
        lam = sensitivity_at(scain(), dims40, ops40, np.pi / 160)
        assert lam == pytest.approx(40.0, rel=1e-6)

    def test_csd_scain_at_hl(self, dims40, ops40):
        spec = scain(detection=Detection("csd", index=0))
        lam = sensitivity_at(spec, dims40, ops40, np.pi / 160)
        assert lam == pytest.approx(40.0, rel=1e-6)

    def test_degenerate_point_flagged_not_zero(self, dims41, ops41):
        # odd N with the redo corrective rotation: the monitored state stays
        # empty, so the SDS sits below the noise floor at every phi
        spec = scain(xi=+1, detection=Detection("csd", index=0))
        lam = sensitivity_at(spec, dims41, ops41, 0.02)
        assert isinstance(lam, float) and math.isnan(lam)

    def test_scan_endpoint_even(self, dims40, ops40):
        (lam,) = sensitivity_scan_mu(scain(), dims40, ops40, [HALF]).lam / 40
        assert lam == pytest.approx(1.0, rel=1e-6)

    def test_scan_endpoint_odd(self, dims41, ops41):
        (lam,) = sensitivity_scan_mu(scain(), dims41, ops41, [HALF]).lam
        assert lam == pytest.approx(math.sqrt(41), rel=0.05)

    def test_scan_rejects_mu_outside_range(self, dims40, ops40):
        with pytest.raises(ValueError):
            sensitivity_scan_mu(scain(), dims40, ops40, [2.0])

    def test_scan_rejects_nan_mu(self, dims40, ops40):
        with pytest.raises(ValueError):
            sensitivity_scan_mu(scain(), dims40, ops40, [0.3, math.nan])

    def test_scan_rejects_nan_in_phi_window(self, dims40, ops40):
        window = default_phi_window(11)
        window[4] = math.nan
        with pytest.raises(ValueError):
            sensitivity_scan_mu(scain(), dims40, ops40, [0.3], phi_window=window)

    def test_sensitivity_at_rejects_nan_phi(self, dims40, ops40):
        with pytest.raises(ValueError):
            sensitivity_at(scain(), dims40, ops40, math.nan)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_sensitivity_at_rejects_non_finite_mu_override(self, dims40, ops40, mu):
        with pytest.raises(ValueError, match="must be finite"):
            sensitivity_at(scain(), dims40, ops40, 0.1, mu_override=mu)

    @pytest.mark.parametrize("n", [40, 41, 600])
    def test_a_point_alone_matches_its_fringe_at_rounding_level(self, n):
        # a point's last bits follow the points scanned with it (measured up
        # to 3.5e-16 N); where it is degenerate, it is so in both
        ops, phis = cached_ops(n), np.linspace(-0.3, 0.3, 11)
        for pid in ("crain", "scain", "cac", "scac"):
            for ara in "xy":
                spec = builtin(pid, ProtocolParams(ara=ara))
                lam = fringe_scan(spec, ops.dims, ops, phis, 0.37).sensitivity(ops.dims)
                alone = [sensitivity_at(spec, ops.dims, ops, phi, 0.37) for phi in phis]
                np.testing.assert_allclose(alone, lam, rtol=0, atol=1e-15 * n)

    def test_hl_bound_on_scan(self, dims40, ops40):
        phis = np.linspace(-0.08, 0.08, 801)
        lam = fringe_scan(scain(), dims40, ops40, phis).sensitivity(dims40)
        assert np.nanmax(lam) <= 40 * (1 + 1e-6)

    def test_sensitivity_independent_of_xi(self, dims41, ops41):
        lams = {}
        for xi in (1, -1):
            spec = scain(xi=xi)
            (lams[xi],) = sensitivity_scan_mu(spec, dims41, ops41, [0.3 * np.pi]).lam
        assert lams[1] == pytest.approx(lams[-1], rel=1e-6)

    def test_odd_csd_signal_flat_for_all_mu(self, dims41, ops41):
        # the redo corrective rotation keeps the readout state empty for odd N
        spec = scain(xi=+1, detection=Detection("csd", index=0))
        for mu in (0.0, 0.1 * np.pi, 0.3 * np.pi, HALF):
            signals = fringe_scan(
                spec, dims41, ops41, np.linspace(-0.5, 0.5, 41), mu_override=mu
            ).signal
            assert max(signals) - min(signals) < 1e-9


class TestSpectralEngine:
    @staticmethod
    def _oracle_moments(spec, n, phi, mu):
        pops = oracle_run(spec, n, phi, mu).populations()
        if spec.detection.kind == "csd":
            p = pops[spec.detection.index % (n + 1)]
            return p, p * (1 - p)
        m = np.arange(n + 1) - n / 2
        mean = m @ pops
        shift = n / 2 if spec.detection.add_j else 0.0
        return mean + shift, ((m - mean) ** 2) @ pops

    @staticmethod
    def _specs():
        for pid in ("crain", "scain", "cac", "cosac", "scac"):
            squeezed = pid in ("scain", "scac")
            for ara in ("x", "y") if squeezed else ("x",):
                for xi in (1, -1) if squeezed else (-1,):
                    for det in ("cd", "csd"):
                        yield builtin(pid, ProtocolParams(mu=0.3, ara=ara, xi=xi,
                                                          detection=Detection(det)))
        for det in (Detection("cd"), Detection("csd", index=1)):
            # one dark zone of phase coefficient -1/2
            yield ProtocolSpec(
                "half-rate",
                (rotate_pulse("x", HALF), dark_pulse(0.5, -1), rotate_pulse("y", 1.0)),
                det,
            )
            yield unfolded(det)
            # an echo of zero phase coefficient: folds to no dark zone
            yield ProtocolSpec(
                "echo-only",
                (rotate_pulse("x", HALF), dark_pulse(0.5, 1), rotate_pulse("x", np.pi),
                 dark_pulse(0.5, 1), rotate_pulse("y", 1.0)),
                det,
            )

    def test_matches_product_space_oracle(self):
        h = 1e-3
        phis = np.array([-0.7, 1.3])
        for n in (3, 4):
            ops = cached_ops(n)
            for spec in self._specs():
                squeezed = any(p.kind == "squeeze" for p in spec.pulses)
                for mu in (None, 0.41) if squeezed else (None,):
                    fringe = fringe_scan(spec, ops.dims, ops, phis, mu_override=mu)
                    for phi, got_signal, sds, pgs in zip(fringe.phi, fringe.signal,
                                                         fringe.sds, fringe.pgs):
                        signal, var = self._oracle_moments(spec, n, phi, mu)
                        assert got_signal == pytest.approx(signal, abs=1e-10)
                        assert sds == pytest.approx(math.sqrt(max(var, 0.0)), abs=1e-10)
                        f = [self._oracle_moments(spec, n, phi + k * h, mu)[0]
                             for k in (-2, -1, 1, 2)]
                        stencil = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
                        assert pgs == pytest.approx(stencil, abs=1e-8)

    def test_sds_matches_centered_variance_of_run(self):
        rng = np.random.default_rng(7)
        for n in (40, 41):
            ops = cached_ops(n)
            m = ops.dims.m_values()
            for pid in ("crain", "scain", "cac", "scac", "unfolded"):
                for _ in range(4):
                    mu = rng.uniform(0.0, HALF)
                    phis = np.sort(rng.uniform(-np.pi, np.pi, 5))
                    ara = str(rng.choice(["x", "y"]))
                    spec = (unfolded() if pid == "unfolded"
                            else builtin(pid, ProtocolParams(mu=mu, ara=ara)))
                    fringe = fringe_scan(spec, ops.dims, ops, phis)
                    for phi, sds in zip(fringe.phi, fringe.sds):
                        p = run(spec, ops.dims, ops, phi).populations()
                        centered = np.sum(p * (m - m @ p) ** 2)
                        assert sds == pytest.approx(math.sqrt(centered), abs=1e-9 * n)

    def test_dicke_state_points_have_no_spurious_lambda(self, dims40, ops40):
        # at mu = 0 the final state is a Dicke state at every phi, and at
        # mu = pi/2 wherever sin(N phi) = 0; the variance is zero there and
        # rounding must not make Lambda defined
        sweep = sensitivity_scan_mu(scain(xi=1), dims40, ops40, [0.0])
        assert np.isnan(sweep.lam).all() and np.isnan(sweep.phi_star).all()
        fringe = fringe_scan(scain(), dims40, ops40, [-np.pi, 0.0, np.pi])
        assert np.isnan(fringe.sensitivity(dims40)).all()

    def test_phi_star_is_first_point_of_flat_maximum(self, dims40, ops40):
        # even N at mu = pi/2: Lambda = N at every non-degenerate point
        window = default_phi_window()
        sweep = sensitivity_scan_mu(scain(xi=1), dims40, ops40, [HALF])
        assert sweep.lam[0] / 40 == pytest.approx(1.0, rel=1e-9)
        assert sweep.phi_star[0] == window[0]

    def test_csd_variance_where_population_nears_one(self, dims41, ops41):
        # the mu = pi/2 row of `sensitivity --protocol scac --n 41 --ara y
        # --detection csd --xi 1 --normalize-hl`: p (1 - p) with 1 - p taken
        # as 1 - p read 1.000000005, above the Heisenberg limit
        spec = builtin("scac", ProtocolParams(mu=HALF, ara="y", xi=1, detection=Detection("csd")))
        sweep = sensitivity_scan_mu(spec, dims41, ops41, [HALF])
        (lam,), (phi_star,) = sweep.lam / 41, sweep.phi_star
        (pgs,) = fringe_scan(spec, dims41, ops41, [phi_star]).pgs
        pops = run(spec, dims41, ops41, phi_star).populations()
        full = abs(pgs) / math.sqrt(pops[-1] * pops[:-1].sum()) / 41
        assert lam <= 1.0 + 1e-10  # rounding only
        assert lam == pytest.approx(full, rel=1e-9)
        # and no point of the full fringe exceeds Lambda = N
        fringe = fringe_scan(spec, dims41, ops41, np.linspace(-np.pi, np.pi, 4001))
        assert np.nanmax(fringe.sensitivity(dims41)) <= 41 * (1.0 + 1e-10)

    @pytest.mark.slow
    def test_scain_laws_at_n2000(self):
        n = 2000
        ops = cached_ops(n)
        phis = np.linspace(-0.1 * np.pi, 0.1 * np.pi, 401)
        fringe = fringe_scan(scain(), ops.dims, ops, phis)
        signal, pgs = fringe.signal, fringe.pgs
        assert np.max(np.abs(signal + n / 2 * np.cos(n * phis))) < 1e-9
        assert np.max(np.abs(pgs - n**2 / 2 * np.sin(n * phis))) < 1e-9 * n**2
        csd = fringe_scan(scain(detection=Detection("csd", index=0)), ops.dims, ops, phis)
        population = csd.signal
        assert np.max(np.abs(population - np.cos(n * phis / 2) ** 2)) < 1e-9


class TestCompiledOncePerScan:
    def test_sweep_compiles_once(self, monkeypatch, dims40, ops40):
        names = []

        def spy(spec, dims, ops):
            names.append(spec.name)
            return compile_protocol(spec, dims, ops)

        monkeypatch.setattr(observables, "compile_protocol", spy)
        for spec in (unfolded(), scain()):
            sweep = sensitivity_scan_mu(spec, dims40, ops40, [0.1, 0.7, 1.3])
            assert len(sweep.lam) == 3
        assert names == ["unfolded", "SCAIN"]

    @pytest.mark.parametrize("spec", [scain(), scain(xi=1, detection=Detection("csd")),
                                      unfolded()], ids=["cd", "csd", "unfolded"])
    def test_scanner_is_freed_when_its_scan_ends(self, ops40, spec):
        # a scanner in a reference cycle would keep its kernel and tables
        # until the cyclic collector ran, piling up over a run of commands
        enabled = gc.isenabled()
        gc.disable()
        try:
            scanner = observables._Scanner(spec, ops40.dims, ops40, default_phi_window(101))
            assert len(list(scanner.scan([0.3, 0.9]))) == 2
            alive = weakref.ref(scanner)
            del scanner
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("k", [1, 5])
    def test_csd_sweep_rotates_twice_per_mu(self, monkeypatch, dims40, ops40, k):
        # the state's R_x(pi/2) and the readout row's R_x(pi/2)^T hold no mu
        # and run once per scan; each mu rotates the state and the row once
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return rotate(*args, **kwargs)

        rotate = dicke.rotate
        monkeypatch.setattr(dicke, "rotate", spy)
        spec = scain(xi=1, detection=Detection("csd"))
        sensitivity_scan_mu(spec, dims40, ops40, np.linspace(0.2, 1.2, k))
        assert len(calls) == 2 + 2 * k

    @pytest.mark.parametrize("n, spec", [
        (40, scain()), (41, scain()), (40, scain(xi=1, detection=Detection("csd"))),
        (40, unfolded()),
    ], ids=["cd-40", "cd-41", "csd-40", "unfolded-40"])
    def test_sweep_is_bitwise_its_single_mu_sweeps(self, n, spec):
        # the later mu of a sweep read the exponential tables of the first
        ops = cached_ops(n)
        mus = [0.3, 0.9, 1.2, HALF]
        sweep = sensitivity_scan_mu(spec, ops.dims, ops, mus)
        singles = [sensitivity_scan_mu(spec, ops.dims, ops, [mu]) for mu in mus]
        for name in ("mu", "lam", "phi_star"):
            column = np.concatenate([getattr(single, name) for single in singles])
            assert getattr(sweep, name).tobytes() == column.tobytes(), name

    @pytest.fixture
    def table_builds(self, monkeypatch):
        """A sweep that returns how many times it built exponential tables."""
        builds = []

        def spy(*args):
            builds.append(args)
            return exp_tables(*args)

        def sweep(spec, ops, window, mus):
            builds.clear()
            sensitivity_scan_mu(spec, ops.dims, ops, mus, phi_window=window)
            return len(builds)

        exp_tables = observables._exp_tables
        monkeypatch.setattr(observables, "_exp_tables", spy)
        return sweep

    @pytest.mark.parametrize("spec", [scain(), scain(xi=1, detection=Detection("csd"))],
                             ids=["cd", "csd"])
    def test_sweep_builds_exponential_tables_once(self, table_builds, ops40, spec):
        window = default_phi_window()
        one = table_builds(spec, ops40, window, [0.2])
        five = table_builds(spec, ops40, window, np.linspace(0.2, 1.2, 5))
        assert five == one >= 1

    @pytest.mark.parametrize("spec", [scain(), scain(xi=1, detection=Detection("csd"))],
                             ids=["cd", "csd"])
    def test_tables_are_not_shared_across_scans(self, monkeypatch, ops40, spec):
        # windows of one length but other phis: tables of the first sweep
        # fit the second's shapes, so only its own scanner keeps them out
        mus = [0.3, 0.9, HALF]
        window = default_phi_window(401)
        sensitivity_scan_mu(spec, ops40.dims, ops40, mus, phi_window=window)
        second = sensitivity_scan_mu(spec, ops40.dims, ops40, mus, phi_window=window + 0.01)
        # alone: with nothing kept, each mu builds the same tables afresh
        monkeypatch.setattr(observables, "_KEPT_TABLE_ELEMENTS", 0)
        alone = sensitivity_scan_mu(spec, ops40.dims, ops40, mus, phi_window=window + 0.01)
        for name in ("lam", "phi_star"):
            assert getattr(second, name).tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize("n, points", [(40, 10**5), (1000, 2001)])
    def test_tables_past_the_cap_are_rebuilt_at_every_mu(self, table_builds, n, points):
        ops, window = cached_ops(n), default_phi_window(points)
        one = table_builds(scain(), ops, window, [0.2])
        two = table_builds(scain(), ops, window, [0.2, 0.7])
        assert two == 2 * one >= 2


class TestParityAverage:
    def test_one_sided(self):
        assert parity_average(40.0, 0.0) == pytest.approx(40 / math.sqrt(2))

    def test_even_hl_odd_sql(self):
        assert parity_average(40.0, math.sqrt(41)) == pytest.approx(math.sqrt(820.5))

    def test_identity_on_equal_values(self):
        assert parity_average(7.7, 7.7) == pytest.approx(7.7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parity_average(-1.0, 2.0)


class TestDetectionIdentity:
    def test_weighted_population_sum_matches_jz(self, dims41, ops41):
        # <j - J_z> equals sum_m (j - m) * population(j + m)
        rng = np.random.default_rng(11)
        for _ in range(5):
            amps = rng.normal(size=42) + 1j * rng.normal(size=42)
            state = SpinState(dims41, amps / np.linalg.norm(amps))
            j = dims41.j
            direct = j - expect_jz(state)
            weighted = sum(
                (j - m) * p
                for k, (m, p) in enumerate(zip(dims41.m_values(), state.populations()))
                if k < dims41.n_atoms
            )
            assert direct == pytest.approx(weighted, abs=1e-10)

    def test_product_state_variance_scaling(self):
        # rotations keep a coherent state a product state, so the ensemble
        # SDS is sqrt(N) times the single-atom SDS
        rng = np.random.default_rng(5)
        one = cached_ops(1)
        for n in (8, 33, 64):
            ops = cached_ops(n)
            angles = rng.uniform(-np.pi, np.pi, 4)
            axes = rng.choice(["x", "y", "z"], 4)
            big = css_state(ops.dims, 0.9, 0.4)
            small = css_state(one.dims, 0.9, 0.4)
            for axis, angle in zip(axes, angles):
                big = apply_rotation(big, ops, axis, angle)
                small = apply_rotation(small, one, axis, angle)
            assert math.sqrt(variance_jz(big)) == pytest.approx(
                math.sqrt(n) * math.sqrt(variance_jz(small)), abs=1e-9
            )


class TestFwhm:
    def test_crain_width_is_pi(self, dims41, ops41):
        width = central_fringe_fwhm(builtin("crain"), dims41, ops41)
        assert width == pytest.approx(np.pi, rel=1e-3)

    def test_odd_scain_narrowed_by_about_sqrt_n(self, dims41, ops41):
        width = central_fringe_fwhm(scain(), dims41, ops41)
        ratio = width / np.pi
        assert 1 / (2 * math.sqrt(41)) <= ratio <= 2 / math.sqrt(41)

    def test_cosac_narrowed_by_about_sqrt_n(self, dims40, ops40):
        w_cosac = central_fringe_fwhm(builtin("cosac"), dims40, ops40)
        w_cac = central_fringe_fwhm(builtin("cac"), dims40, ops40)
        ratio = w_cosac / w_cac
        # gaussian limit of cos^{2N}(phi/2) gives 4 sqrt(ln2/N) / pi
        assert ratio == pytest.approx(4 * math.sqrt(math.log(2) / 40) / np.pi, rel=0.02)
        assert 0.5 / math.sqrt(40) <= ratio <= 2 / math.sqrt(40)

    def test_central_fringe_narrows_with_mu(self, dims40, ops40):
        widths = [
            central_fringe_fwhm(
                scain(), dims40, ops40, half_window=0.3, n_points=2001, mu_override=mu
            )
            for mu in (np.pi / 8, np.pi / 4, 3 * np.pi / 8)
        ]
        assert widths[0] > widths[1] > widths[2]

    def test_even_scain_width_is_pi_over_n(self, dims40, ops40):
        for n_points in (401, 4001):
            width = central_fringe_fwhm(scain(), dims40, ops40, n_points=n_points)
            assert width == pytest.approx(np.pi / 40, abs=1e-12)

    @pytest.mark.parametrize("n_points", [400, 4000, 2, 1])
    def test_rejects_grids_without_a_middle_point(self, dims40, ops40, n_points):
        # an even grid has no point at phi = 0: at 400 points the width
        # above read 0.07984, at 4000 points 0.0785522
        with pytest.raises(ValueError, match="odd"):
            central_fringe_fwhm(scain(), dims40, ops40, n_points=n_points)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu_override(self, dims40, ops40, mu):
        # a NaN signal used to surface as "no half-level crossing"
        with pytest.raises(ValueError, match="must be finite"):
            central_fringe_fwhm(scain(), dims40, ops40, half_window=0.3, mu_override=mu)


class TestExcessNoise:
    def test_table_scales(self):
        table = noise_model_table(100)
        assert table["crain"].pgs_scale == 1.0
        assert table["cd-scain"].pgs_scale == 100.0
        assert table["cd-scain"].sds_scale == 10.0
        assert table["esp"].pgs_scale == pytest.approx(math.sqrt(50))
        assert table["tact"].sds_scale == pytest.approx(1 / math.sqrt(50))
        assert table["csd-scain"].sds_scale == pytest.approx(0.1)

    def test_equal_noise_halves_power(self):
        n = 10_000
        for row in noise_model_table(n).values():
            crossover = excess_noise_crossover(row, n)
            lam0 = excess_noise_curve(row, n, [0.0])[0]
            lam = excess_noise_curve(row, n, [crossover])[0]
            assert lam == pytest.approx(lam0 / math.sqrt(2), rel=1e-12)

    def test_cd_scain_robustness_factors(self):
        n = 10_000
        table = noise_model_table(n)
        cd = excess_noise_crossover(table["cd-scain"], n)
        esp = excess_noise_crossover(table["esp"], n)
        assert cd / esp == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_cd_scain_useful_to_n_three_halves(self):
        n = 10_000
        row = noise_model_table(n)["cd-scain"]
        en = n**1.5 / math.sqrt(2)
        lam = excess_noise_curve(row, n, [en])[0]
        assert lam == pytest.approx(math.sqrt(n / 2), rel=1e-3)

    def test_qpn_limits(self):
        n = 10_000
        table = noise_model_table(n)
        assert excess_noise_curve(table["crain"], n, [0.0])[0] == pytest.approx(
            math.sqrt(n)
        )
        assert excess_noise_curve(table["cd-scain"], n, [0.0])[0] == pytest.approx(n)


class TestHelpers:
    def test_default_window_excludes_zero(self):
        window = default_phi_window(100)
        assert window[0] > 0
        assert window[-1] == pytest.approx(np.pi / 2)

    def test_point_sensitivity_floor(self, dims40):
        fringe = Fringe(phi=[0.0, 0.1], signal=[1.0, 1.0], sds=[1e-12, 0.5], pgs=[5.0, -5.0])
        lam = fringe.sensitivity(dims40)
        assert np.isnan(lam).tolist() == [True, False]
        assert lam[1] == 10.0


class TestSubGridPool:
    """The CD samples come from one FFT per row, taken and reduced in row
    slabs whose partials merge in slab order, on up to pool_size threads:
    the thread count may not move a bit of the result, and the slab height
    only at rounding level."""

    @pytest.mark.parametrize("rows", [1, 2, 5, 16, 40])
    def test_sweep_is_stable_across_slab_heights(self, monkeypatch, rows):
        # from one row per slab (every row a halo of two slabs) to two slabs,
        # the merged moments match the single-slab scan to rounding (measured:
        # signal 3.6e-16 N, PGS 3.6e-16 N^2, SDS 1.4e-14 N, Lambda 3.8e-12 N)
        ops = cached_ops(40)
        mus, window = [0.0, 0.021 * np.pi, 0.3, HALF], default_phi_window(401)
        specs = [scain(xi=1), scain(ara="y"), builtin("scac"), builtin("crain")]

        def scan():
            return [fringe_scan(spec, ops.dims, ops, window, mu if squeezed else None)
                    for spec in specs for squeezed in [spec.name in ("SCAIN", "SCAC")]
                    for mu in (mus if squeezed else mus[:1])]

        whole = scan()
        slab_rows(monkeypatch, 40, rows)
        for one, sliced in zip(whole, scan()):
            assert np.max(np.abs(sliced.signal - one.signal)) <= 1e-15 * 40
            assert np.max(np.abs(sliced.pgs - one.pgs)) <= 1e-15 * 40**2
            assert np.max(np.abs(sliced.sds - one.sds)) <= 1e-13 * 40
            lam, lam_one = sliced.sensitivity(ops.dims), one.sensitivity(ops.dims)
            assert np.array_equal(np.isnan(lam), np.isnan(lam_one))
            assert np.nanmax(np.abs(lam - lam_one), initial=0.0) <= 2e-11 * 40

    def test_slabs_tile_the_rows(self, monkeypatch):
        # the top slabs and their mirror images cover every row once, and a
        # slab and its mirror meet in one slab where they fit; each group's
        # fold rows hold its slabs' rows and halo rows, row r > N/2 being
        # fold row N - r, in one group or, with a small block, in several
        for block, groups in ((observables._BLOCK_ELEMENTS, 1), (150, 20)):
            monkeypatch.setattr(observables, "_BLOCK_ELEMENTS", block)
            for dim in range(2, 80):
                for rows in range(1, 14):
                    plan = observables._plan(dim, rows)
                    spans = [s for _, _, slabs in plan for s in slabs]
                    covered = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
                    assert np.array_equal(np.sort(covered), np.arange(dim)), (dim, rows)
                    assert all(0 < hi - lo <= rows for lo, hi in spans)
                    for first, last, slabs in plan:
                        for lo, hi in slabs:
                            held = np.arange(max(lo - 1, 0), min(hi + 1, dim))
                            fold = np.minimum(held, dim - 1 - held)
                            assert first <= fold.min() and fold.max() < last, (dim, rows)
            assert len(observables._plan(79, 2)) == groups
        monkeypatch.undo()
        assert observables._plan(41, 1618) == [(0, 21, [(0, 41)])]

    def test_slab_moments_sum_to_the_whole(self):
        # W, M and the merged variance of a split column equal those of the
        # whole column, which has zero rows past its edges
        rng = np.random.default_rng(3)
        dim, cols = 45, 7
        w = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        diag = rng.standard_normal(dim)
        upper = np.concatenate(([0], rng.standard_normal(dim - 1)
                                + 1j * rng.standard_normal(dim - 1), [0]))
        below, above = upper[:-1].conj(), upper[1:]
        padded = np.zeros((dim + 2, cols), dtype=complex)
        padded[1:-1] = w
        t = np.diag(diag) + np.diag(upper[1:-1], 1) + np.diag(upper[1:-1].conj(), -1)
        weight, first, var = _moments(padded, diag, below, above)
        tw = t @ w
        assert np.allclose(weight, np.sum(np.abs(w) ** 2, axis=0), rtol=1e-14)
        assert np.allclose(first, np.real(np.sum(w.conj() * tw, axis=0)), rtol=1e-13)
        centre = first / weight
        assert np.allclose(var, np.sum(np.abs(tw - centre * w) ** 2, axis=0), rtol=1e-13)
        for cuts in ([0, 20, dim], [0, 1, 2, 30, 44, dim], list(range(dim + 1))):
            parts = [_moments(padded[a : b + 2], diag[a:b], below[a:b], above[a:b])
                     for a, b in zip(cuts[:-1], cuts[1:])]
            merged_first, merged_var = _merge(parts)
            assert np.allclose(merged_first, first, rtol=1e-13, atol=1e-12)
            assert np.allclose(merged_var, var, rtol=1e-13)

    def test_in_place_fft_is_bitwise_the_padded_one(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((45, 41)) + 1j * rng.standard_normal((45, 41))
        w = np.zeros((45, 45), dtype=complex)
        w[:, :41] = a
        assert np.array_equal(np.fft.fft(w, axis=1, out=w), np.fft.fft(a, n=45, axis=1))

    @pytest.mark.parametrize("xi", [1, -1])
    def test_pooled_scan_is_bitwise_the_serial_one(self, monkeypatch, many_cpus, xi):
        # the slab budget gives N = 40 5 slabs of 9 rows, which run on up
        # to 4 workers with a short switch interval to interleave them
        ops = cached_ops(40)
        spec, window = scain(xi=xi), default_phi_window(301)
        slab_rows(monkeypatch, 40, 9)

        def scan(threads):
            return [np.array([f.signal, f.sds, f.pgs])
                    for f in (fringe_scan(spec, ops.dims, ops, window, mu, threads)
                              for mu in (0.3, HALF))]

        serial = scan(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3, 4):
                assert observables._Scanner(spec, ops.dims, ops, window, threads).workers == threads
                assert all(map(np.array_equal, scan(threads), serial))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("rows", [1, 6, 13])
    def test_pooled_slabs_are_bitwise_the_serial_ones(self, monkeypatch, many_cpus, rows):
        # several slabs at N = 40, so the pool maps over slabs whose
        # partials arrive in any order; the merge runs in slab order
        ops = cached_ops(40)
        spec, window = scain(ara="y"), default_phi_window(301)
        slab_rows(monkeypatch, 40, rows)

        def scan(threads):
            return [np.array([f.signal, f.sds, f.pgs])
                    for f in (fringe_scan(spec, ops.dims, ops, window, mu, threads)
                              for mu in (0.021 * np.pi, HALF))]

        serial = scan(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3, 4):
                assert all(map(np.array_equal, scan(threads), serial))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.slow
    def test_scan_memory_at_the_cap(self):
        # a whole CRAIN CD fringe at N = 4000, whose empty middle builds no
        # rows: measured 15.8 MiB, and 271.8 MiB with the dense middle
        ops = cached_ops(4000)
        fringe, scan = traced_peak_mib(
            lambda: fringe_scan(builtin("crain"), ops.dims, ops, default_phi_window()))
        assert scan <= 25
        assert np.max(np.abs(fringe.signal + 2000 * np.cos(fringe.phi))) <= 1e-14 * 4000

    @pytest.mark.slow
    def test_sweep_memory_at_the_cap(self):
        # a whole 3-mu SCAIN sweep at N = 4000, each group of slabs building
        # its middle rows once for every mu, the next group while both
        # workers sample the last slabs of the one before: measured 58.6 MiB,
        # and 305.8 MiB with the dense middle
        ops = cached_ops(4000)
        sweep, scan = traced_peak_mib(lambda: sensitivity_scan_mu(
            scain(), ops.dims, ops, np.pi * np.array([0.4, 0.45, 0.5])))
        assert scan <= 75
        assert sweep.lam[-1] / 4000 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.slow
    def test_y_rotation_middle_memory(self):
        # SCAIN with ara y at N = 2000: its pi rotation moves before the dark
        # zone and its y rotation's rows come as x rows; measured 52.2 MiB,
        # and 244.6 MiB when the middle was built dense (977 MiB at N = 4000)
        ops = cached_ops(2000)
        fringe, scan = traced_peak_mib(
            lambda: fringe_scan(scain(ara="y"), ops.dims, ops, default_phi_window()))
        assert scan <= 65
        for i in (0, 700, 2000):
            state = run(scain(ara="y"), ops.dims, ops, fringe.phi[i])
            assert fringe.signal[i] == pytest.approx(expect_jz(state), abs=1e-12 * 2000)

    @pytest.mark.slow
    def test_long_sweep_memory(self, monkeypatch, many_cpus):
        # 600 mu at N = 300 (605 samples) on a pool of 2, over 2 slabs of at
        # most 151 rows, run in batches of 288, 288 and 24 mu, whose slab
        # moments stay within half of _BLOCK_ELEMENTS: measured 21.9 MiB, and
        # 44.5 MiB with all 600 mu in one pass.  A mu gives the same bits in
        # any batch, on both sides of each batch edge.
        slab_rows(monkeypatch, 300, 151)
        ops = cached_ops(300)
        mus, window = np.linspace(0.0, HALF, 600), np.linspace(0.01, 1.5, 41)

        def sweep(part):
            return sensitivity_scan_mu(scain(), ops.dims, ops, part, phi_window=window, threads=2)

        whole, scan = traced_peak_mib(lambda: sweep(mus))
        assert scan <= 35
        for i in (0, 287, 288, 575, 576, 599):
            alone = sweep(mus[i : i + 1])
            assert alone.lam.tobytes() == whole.lam[i : i + 1].tobytes()
            assert alone.phi_star.tobytes() == whole.phi_star[i : i + 1].tobytes()
        assert whole.lam[-1] / 300 == pytest.approx(1.0, abs=1e-12)

    def test_sweep_holds_no_dense_matrix(self):
        # after a 3-mu sweep at N = 1000 no array the scanner can reach holds
        # dim^2 elements; the kept exponential tables stop at 65 536
        ops = cached_ops(1000)
        scanner = observables._Scanner(scain(), ops.dims, ops, default_phi_window())
        columns = list(scanner.scan([0.3, 1.1, HALF]))
        assert len(columns) == 3
        sizes, seen, todo = [], set(), [scanner]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                sizes += [obj.size] + ([obj.base.size] if isinstance(obj.base, np.ndarray) else [])
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif isinstance(obj, dict):
                todo += obj.values()
            elif hasattr(obj, "__dict__"):
                todo += vars(obj).values()
        # the walk reaches the operator set's one eigenvector array and its base
        assert len(sizes) > 8 and ops.vectors.size in sizes and max(sizes) < 1001**2

    def test_every_builtin_takes_the_fast_path(self, monkeypatch):
        # no built-in is evaluated directly at every phi: each CSD scan reads
        # its row, each CD middle is one x rotation or none
        def evaluated(self, mus):
            raise AssertionError(f"{self.spec.name} scanned through direct evaluation")

        monkeypatch.setattr(observables._Scanner, "_evaluated", evaluated)
        for n in (40, 41, 1000):
            ops = cached_ops(n)
            for pid in PROTOCOL_IDS:
                for ara in "xy":
                    for xi in (1, -1):
                        for kind in ("cd", "csd"):
                            params = ProtocolParams(mu=0.3, ara=ara, xi=xi,
                                                    detection=Detection(kind))
                            scanner = observables._Scanner(builtin(pid, params), ops.dims, ops,
                                                           [-0.2, 0.05, 0.4])
                            ((signal, sds, _),) = scanner.scan([None])
                            assert np.isfinite(signal).all() and np.isfinite(sds).all()
                            if kind == "cd":
                                assert [(p.kind, p.axis) for p in scanner.middle_pulses] in (
                                    [], [("rotate", "x")]), (n, pid, ara, xi)

    def test_pool_size_caps_at_the_slabs(self, many_cpus):
        # the pool's tasks are the slabs: 8 of 129 rows at N = 1000 (2025 samples)
        ops = cached_ops(1000)
        plan = observables._Scanner(scain(), ops.dims, ops, [0.1]).plan
        slabs = sum(len(group) for _, _, group in plan)
        assert slabs == 8
        assert pool_size(1, slabs) == 1
        assert pool_size(3, slabs) == 3
        assert pool_size(10**6, slabs) == 8  # sized, never started
        assert pool_size(None, 1) == 1
        with pytest.raises(ValueError):
            pool_size(0, slabs)

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (2, 2), (64, 2)])
    def test_pool_size_default_stops_at_two(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert pool_size(None, 5) == expected
        assert pool_size(cpus, 5) == min(cpus, 5)  # an explicit request is kept

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pool_size_caps_an_explicit_request_at_the_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for threads in (1, 2, 4, 10**6):
            assert pool_size(threads, 5) == min(threads, cpus)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert pool_size(4, 5) == cpus

    def test_pool_size_default_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert pool_size(None, 5) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pool_size(None, 5) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(None, 5) == 1

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("spec", [scain(), scain(detection=Detection("csd", index=0)),
                                      unfolded()], ids=["cd", "csd", "unfolded"])
    def test_threads_are_checked_on_every_path(self, ops40, spec, threads):
        # at N = 40 no path sizes a pool, and each used to accept these
        with pytest.raises(ValueError, match="threads must be >= 1"):
            fringe_scan(spec, ops40.dims, ops40, [0.1], threads=threads)

    def test_scan_workers_only_on_the_large_cd_path(self, many_cpus):
        csd = scain(detection=Detection("csd", index=0))
        # one dark zone, but a CD middle of x 0.4 then y 0.7 before the
        # squeeze: longer than one x rotation, so evaluated directly, serially
        long_middle = ProtocolSpec("long-middle", (
            rotate_pulse("x", HALF), dark_pulse(1.0, 1), rotate_pulse("x", 0.4),
            rotate_pulse("y", 0.7), squeeze_pulse(0.3, 1), rotate_pulse("x", HALF)),
            Detection("cd"))

        def workers(spec, threads, n=1000):
            ops = cached_ops(n)
            return observables._Scanner(spec, ops.dims, ops, [0.1], threads).workers

        assert workers(scain(), 4, 40) == 1  # one slab
        assert workers(scain(), 4, 358) == 1  # one slab of 729 samples up to N = 358
        assert workers(scain(), 4, 359) == 2  # two slabs from N = 359
        assert workers(scain(), 4) == 4
        assert workers(scain(), 10**6) == 8  # 8 slabs at N = 1000; sized, never started
        assert workers(csd, 4) == 1
        assert workers(unfolded(), 4) == 1
        ops = cached_ops(1000)
        assert len(compile_protocol(long_middle, ops.dims, ops).segments) == 1
        assert workers(long_middle, 4) == 1
        report = {}
        fringe_scan(long_middle, ops.dims, ops, [0.1], threads=4, report=report)
        assert report["pool_workers"] == 1
        assert workers(csd, 4, 40) == 1
        assert workers(unfolded(), 4, 40) == 1


class TestTailRule:
    """Where every pulse of the CD middle and tail is a squeeze or a quarter
    turn, the variance is pi-periodic in theta, and the scan samples it on
    an odd FFT length of at least 2N+1 in place of one of at least 4N+1."""

    X_MIDDLE = ProtocolSpec("x-middle", (
        rotate_pulse("x", HALF), dark_pulse(1.0, 1), rotate_pulse("x", 0.7),
        squeeze_pulse(0.3, 1), rotate_pulse("x", HALF)), Detection("cd"))

    def test_sample_counts(self):
        ops = cached_ops(1000)
        scanner = observables._Scanner(scain(), ops.dims, ops, [0.1])
        assert scanner.pi_periodic and scanner.samples == 2025
        scanner = observables._Scanner(self.X_MIDDLE, ops.dims, ops, [0.1])
        assert scanner.middle_pulses == [rotate_pulse("x", 0.7)]
        assert not scanner.pi_periodic and scanner.samples == 4050
        for n, halved, whole in ((40, 81, 162), (41, 99, 180), (2000, 4125, 8100)):
            assert observables._slabs(EnsembleDims(n), True)[0] == halved
            assert observables._slabs(EnsembleDims(n), False)[0] == whole

    def test_a_middle_off_the_quarter_turns_is_not_pi_periodic(self, ops40):
        # why such a spec keeps 4N+1 samples: theta + pi moves its variance
        scanner = observables._Scanner(self.X_MIDDLE, ops40.dims, ops40, [0.1])
        var = scanner._direct(np.array([0.1, 0.1 + np.pi]), 0.3)[1]
        assert abs(var[0] - var[1]) > 1e-3 * 40**2


class TestBlasThreads:
    """A CD scan of more than one slab (N >= 359 for every built-in) runs
    every BLAS call on one thread and hands the process's own count back when
    it returns or raises; every other scan, one-slab CD scans included,
    leaves the library alone."""

    @pytest.fixture
    def blas(self, monkeypatch):
        """numpy's OpenBLAS (a stand-in count of 3 where it is not found), with
        every call to it recorded."""
        count = [3]
        get, put = observables._openblas() or (lambda: count[0], lambda n: count.__setitem__(0, n))
        calls = []

        def record(name, fn):
            def call(*args):
                calls.append((name, *args))
                return fn(*args)
            return call

        monkeypatch.setattr(observables, "_openblas", lambda: (record("get", get),
                                                               record("set", put)))
        return get, calls

    @staticmethod
    def _seen_inside(monkeypatch, fail=False):
        """The BLAS threads that each slab's _moments call runs on."""
        seen, moments = [], observables._moments

        def spy(*args):
            seen.append(observables.blas_threads())
            if fail:
                raise RuntimeError("a slab failed")
            return moments(*args)

        monkeypatch.setattr(observables, "_moments", spy)
        return seen

    SCANS = {
        "fringe_scan": lambda ops: fringe_scan(scain(), ops.dims, ops, np.linspace(-0.01, 0.01, 5)),
        "sensitivity_scan_mu": lambda ops: sensitivity_scan_mu(
            scain(xi=1), ops.dims, ops, [0.45 * np.pi, HALF], np.linspace(0.001, 0.01, 5)),
        "central_fringe_fwhm": lambda ops: central_fringe_fwhm(
            scain(), ops.dims, ops, half_window=0.01, n_points=21),
    }

    @pytest.mark.parametrize("scan", SCANS)
    def test_pinned_scan_restores_the_count(self, blas, monkeypatch, scan):
        get, calls = blas
        before = get()
        seen = self._seen_inside(monkeypatch)
        self.SCANS[scan](cached_ops(600))
        assert get() == before
        assert seen and set(seen) == {1}
        assert [call for call in calls if call[0] == "set"] == [("set", 1), ("set", before)]

    def test_raising_scan_restores_the_count(self, blas, monkeypatch):
        get, calls = blas
        before = get()
        self._seen_inside(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="a slab failed"):
            self.SCANS["sensitivity_scan_mu"](cached_ops(600))
        assert get() == before
        assert [call for call in calls if call[0] == "set"] == [("set", 1), ("set", before)]

    @pytest.mark.parametrize("scan", SCANS)
    def test_scan_below_the_pool_never_touches_the_library(self, blas, scan):
        get, calls = blas
        before = get()
        self.SCANS[scan](cached_ops(40))  # one CD slab, serially
        assert calls == [] and get() == before

    @pytest.fixture
    def stand_in(self, monkeypatch):
        """A stand-in library whose count starts at 3, whatever the machine's,
        and a bookkeeping of open limits that the test cannot leave behind."""
        count = [3]
        monkeypatch.setattr(observables, "_openblas", lambda: (
            lambda: count[0], lambda n: count.__setitem__(0, n)))
        monkeypatch.setattr(observables, "_blas_saved", {"count": None, "open": 0},
                            raising=False)
        return count

    def test_limits_open_at_once_restore_the_count_in_any_order(self, stand_in):
        first, second = observables._blas_limit(1), observables._blas_limit(1)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)  # closed in the order they opened
        assert stand_in == [1]  # the second still runs pinned
        second.__exit__(None, None, None)
        assert stand_in == [3]

    def test_scans_running_at_once_restore_the_count(self, stand_in, monkeypatch):
        ops, merge = cached_ops(600), observables._merge
        both_inside = threading.Barrier(2, timeout=60)

        def merge_once_both_are_pinned(partials):
            both_inside.wait()
            return merge(partials)

        def scan(_):
            return fringe_scan(scain(), ops.dims, ops, np.linspace(-0.01, 0.01, 5))

        monkeypatch.setattr(observables, "_merge", merge_once_both_are_pinned)
        with ThreadPoolExecutor(2) as pool:
            for _ in range(8):  # either may end first
                list(pool.map(scan, range(2)))
                assert stand_in == [3]

    def test_other_paths_keep_the_library_default(self, blas):
        get, calls = blas
        ops = cached_ops(600)
        csd = scain(detection=Detection("csd", index=0))
        for spec in (csd, unfolded()):
            report = {}
            fringe_scan(spec, ops.dims, ops, [0.1], report=report)
            assert report["blas_threads"] == get()
        assert [call for call in calls if call[0] == "set"] == []
