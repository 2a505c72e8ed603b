"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 9d compares the closed-form dephased fraction theta with
the budget pipeline's theta_frac by their exact relation at optimal
detuning, theta_frac = theta (1 + theta): the closed form is the scattering
term alone and the cavity-decay term is its square.  Their relative gap is
therefore theta itself (13% at N C = 1e3); 9d asserts the relation, the
gap's decrease with N C, and 1% agreement from N C = (pi^2/32) 1e8 on.
"""

import math
import time

import numpy as np
import pytest

from catspin.cavity import (
    chi_cavity_design,
    closed_form_theta,
    improvement_factor,
    optimal_detuning,
    squeezing_time,
    MomentSet,
    decay_moments,
)
from catspin.dicke import (
    EnsembleDims,
    apply_rotation,
    build_operator_set,
    css_state,
)
from catspin.husimi import default_grid, qpd_field, quadrature
from catspin.observables import (
    central_fringe_fwhm,
    excess_noise_crossover,
    expect_jz,
    noise_model_table,
    parity_average,
    sensitivity_at,
    sensitivity_scan_mu,
    variance_jz,
)
from catspin.protocols import (
    Detection,
    ProtocolParams,
    builtin,
    compile_protocol,
    oracle_run,
    run,
)

from conftest import cached_ops

pytestmark = pytest.mark.acceptance

HALF = math.pi / 2


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    return ok


def scain_spec(**kw):
    defaults = dict(mu=HALF, ara="x", xi=-1)
    defaults.update(kw)
    return builtin("scain", ProtocolParams(**defaults))


def test_criterion_01_exact_scain_fringe_law():
    t0 = time.perf_counter()
    worst_cd = worst_csd = 0.0
    phis = np.linspace(-np.pi, np.pi, 1001)
    for n in (4, 10, 40):
        ops = cached_ops(n)
        kernel = compile_protocol(scain_spec(), ops.dims, ops)
        pops = np.abs(kernel.evaluate(phis)[0]) ** 2
        signal = ops.m @ pops
        worst_cd = max(worst_cd, np.max(np.abs(signal + (n / 2) * np.cos(n * phis))))
        worst_csd = max(
            worst_csd, np.max(np.abs(pops[0] - np.cos(n * phis / 2) ** 2))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_cd < 1e-9 and worst_csd < 1e-9 and elapsed < 5.0
    assert report(
        "1",
        ok,
        f"CD err {worst_cd:.2e}, CSD err {worst_csd:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_sensitivity_endpoints():
    t0 = time.perf_counter()
    ops40, ops41 = cached_ops(40), cached_ops(41)

    crain = sensitivity_at(builtin("crain"), ops40.dims, ops40, 0.45)
    even = sensitivity_at(scain_spec(), ops40.dims, ops40, np.pi / 160)
    (odd,) = sensitivity_scan_mu(scain_spec(), ops41.dims, ops41, [HALF]).lam

    elapsed = time.perf_counter() - t0
    ok_crain = abs(crain - math.sqrt(40)) <= 1e-6 * math.sqrt(40)
    ok_even = abs(even - 40.0) <= 1e-6 * 40.0
    ok_odd = abs(odd - math.sqrt(41)) <= 0.05 * math.sqrt(41)
    ok = ok_crain and ok_even and ok_odd and elapsed < 10.0
    assert report(
        "2",
        ok,
        f"CRAIN {crain:.9f} (sqrt40={math.sqrt(40):.9f}), even {even:.9f}, "
        f"odd {odd:.4f} (sqrt41={math.sqrt(41):.4f}), {elapsed:.2f} s",
    )


def test_criterion_03_plateau():
    mus = np.linspace(0.2 * np.pi, 0.45 * np.pi, 26)
    means = {}
    for n in (40, 41):
        ops = cached_ops(n)
        sweep = sensitivity_scan_mu(scain_spec(), ops.dims, ops, mus)
        means[n] = float(np.mean(sweep.lam / n))
    ok = all(0.66 <= means[n] <= 0.76 for n in (40, 41))
    assert report("3", ok, f"mean Lambda/N: N=40 -> {means[40]:.4f}, N=41 -> {means[41]:.4f}")


def test_criterion_04_parity_average():
    exact_ok = True
    for n in (4, 40, 1000):
        got = parity_average(float(n), math.sqrt(n))
        want = math.sqrt((n**2 + n) / 2)
        exact_ok &= abs(got - want) <= 1e-13 * want
    n = 10_000
    ratio = parity_average(float(n), math.sqrt(n)) / (n / math.sqrt(2))
    ratio_ok = abs(ratio - 1.0) <= 1e-4
    ok = exact_ok and ratio_ok
    assert report("4", ok, f"sqrt((N^2+N)/2) exact: {exact_ok}; N=1e4 ratio {ratio:.8f}")


def test_criterion_05_detection_identity_and_variance_scaling():
    rng = np.random.default_rng(2024)
    ident_worst = scale_worst = 0.0
    one = cached_ops(1)
    for n in (3, 17, 40, 64):
        ops = cached_ops(n)
        j = ops.dims.j
        for _ in range(3):
            axes = rng.choice(["x", "y", "z"], size=5)
            angles = rng.uniform(-np.pi, np.pi, size=5)
            big = css_state(ops.dims, 0.8, 0.3)
            small = css_state(one.dims, 0.8, 0.3)
            for axis, angle in zip(axes, angles):
                big = apply_rotation(big, ops, axis, angle)
                small = apply_rotation(small, one, axis, angle)
            pops = big.populations()
            weighted = sum(
                (j - m) * pops[k] for k, m in enumerate(ops.dims.m_values())
            )
            ident_worst = max(ident_worst, abs((j - expect_jz(big)) - weighted))
            scale_worst = max(
                scale_worst,
                abs(
                    math.sqrt(variance_jz(big))
                    - math.sqrt(n) * math.sqrt(variance_jz(small))
                ),
            )
    ok = ident_worst < 1e-10 and scale_worst < 1e-9
    assert report(
        "5", ok, f"identity err {ident_worst:.2e}, scaling err {scale_worst:.2e}"
    )


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (1, 2, 3, 4):
        ops = cached_ops(n)
        for pid in ("crain", "scain", "cac", "cosac", "scac"):
            spec = builtin(pid, ProtocolParams(mu=HALF, ara="x", xi=-1))
            for phi in rng.uniform(-np.pi, np.pi, size=20):
                fast = run(spec, ops.dims, ops, float(phi)).amps
                slow = oracle_run(spec, n, float(phi)).amps
                worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst < 1e-10
    assert report("6", ok, f"max amplitude deviation {worst:.2e}")


def test_criterion_07_clock_closed_forms():
    worst_cosac = worst_cac = 0.0
    phis = np.linspace(-np.pi, np.pi, 201)
    for n in (2, 25, 100):
        ops = cached_ops(n)
        cac = compile_protocol(builtin("cac"), ops.dims, ops)
        pops = np.abs(cac.evaluate(phis)[0]) ** 2
        up_count = ops.dims.j + ops.m @ pops
        worst_cac = max(
            worst_cac, float(np.max(np.abs(up_count - n * np.cos(phis / 2) ** 2)))
        )
        worst_cosac = max(
            worst_cosac,
            float(np.max(np.abs(pops[n] - np.cos(phis / 2) ** (2 * n)))),
        )
    ok = worst_cosac < 1e-9 and worst_cac < 1e-9
    assert report("7", ok, f"COSAC err {worst_cosac:.2e}, CAC err {worst_cac:.2e}")


def test_criterion_08_odd_central_fringe_narrowing():
    ops = cached_ops(41)
    scain_width = central_fringe_fwhm(scain_spec(), ops.dims, ops)
    crain_width = central_fringe_fwhm(builtin("crain"), ops.dims, ops)
    ratio = scain_width / crain_width
    lo, hi = 1 / (2 * math.sqrt(41)), 2 / math.sqrt(41)
    ok = lo <= ratio <= hi
    assert report(
        "8", ok, f"FWHM ratio {ratio:.4f} within [{lo:.4f}, {hi:.4f}]"
    )


def test_criterion_09a_chi_reference_anchor():
    t0 = time.perf_counter()
    chi = chi_cavity_design()
    elapsed = time.perf_counter() - t0
    ok = 0.5e8 <= chi <= 2e8 and elapsed < 1.0
    assert report("9a", ok, f"chi(reference) = {chi:.3e} 1/s")


def test_criterion_09b_squeezing_time_chain():
    t_ref = squeezing_time(chi_cavity_design())
    t_mod = squeezing_time(chi_cavity_design(mode_side=200e-6, mirror_t=1e-4))
    t_pow = squeezing_time(
        chi_cavity_design(mode_side=200e-6, mirror_t=1e-4, power=1e-2)
    )
    ok = (
        abs(t_ref - 15e-9) <= 0.1 * 15e-9
        and abs(t_mod - 15e-6) <= 0.1 * 15e-6
        and abs(t_pow - 0.15e-6) <= 0.1 * 0.15e-6
    )
    assert report(
        "9b", ok, f"t_sc chain {t_ref:.3g} s / {t_mod:.3g} s / {t_pow:.3g} s"
    )


def test_criterion_09c_improvement_near_seventy_db():
    n, coop = 1e7, 0.01
    budget = improvement_factor(n, coop, optimal_detuning(n, coop))
    ok = abs(budget.f_db - 70.0) < 1.0
    assert report("9c", ok, f"F = {budget.f_db:.3f} dB (ideal 70 dB)")


def test_criterion_09d_theta_closed_form_vs_pipeline():
    # At delta_tilde = sqrt(8 N C) and chi t = pi/2 the pipeline's dephased
    # fraction is the scattering term, which is the closed form theta, plus
    # the cavity-decay term pi / (2 delta_tilde) = theta^2.  So the two agree
    # exactly as theta_frac = theta (1 + theta), their relative gap is theta,
    # and it falls to 1% only from N C = (pi^2 / 32) 1e8 on.
    coop = 0.01

    def compare(n):
        pipeline = improvement_factor(n, coop, optimal_detuning(n, coop)).theta_frac
        closed = closed_form_theta(n, coop)
        gap = abs(pipeline - closed) / closed
        return gap, abs(pipeline - closed * (1.0 + closed)) / pipeline

    nc_one_percent = math.pi**2 / 32.0 * 1e8
    stated = [(n * coop, *compare(n)) for n in (1e5, 1e6, 1e7, 1e9)]
    above = [(n * coop, *compare(n)) for n in (3.1e9, 1e11)]
    assert min(nc for nc, _, _ in above) >= nc_one_percent

    worst = max(exact for _, _, exact in stated)
    gaps = [gap for _, gap, _ in stated]
    converging = all(a > b for a, b in zip(gaps, gaps[1:]))
    one_percent_ok = all(gap <= 0.01 for _, gap, _ in above)
    ok = worst <= 1e-12 and converging and one_percent_ok
    detail = ", ".join(
        f"NC={nc:.2e}: {gap:.4%}" for nc, gap, _ in stated + above
    ) + f"; theta(1+theta) off by <= {worst:.1e}"
    report("9d", ok, detail)
    assert worst <= 1e-12, (
        f"theta_frac deviates from theta (1 + theta) by {worst:.2e} relative"
    )
    assert converging, f"relative gap does not decrease with N C: {gaps}"
    assert one_percent_ok, (
        f"closed form vs pipeline exceeds 1% above N C = {nc_one_percent:.3e}: "
        + ", ".join(f"{gap:.4%}" for _, gap, _ in above)
    )


def test_criterion_10_moment_decay():
    start = MomentSet(jy_mean=3.3, jx_sq=1.2, jy_sq=8.0, jz_mean=0.7, jz_sq=5.0)
    out = decay_moments(start, 1.7, 0.9)
    conserved = (
        out.jx_sq + out.jy_sq == start.jx_sq + start.jy_sq
        and out.jz_mean == start.jz_mean
        and out.jz_sq == start.jz_sq
    )
    # small-gamma-t expansion against the leading-order budget values
    # J/2 + J^2 gamma t (x variance) and  J (1 - gamma t / 2) (y mean);
    # the exact solution carries an additional subleading-in-J term
    # (J/2) gamma t inside the x variance, excluded here, plus O((gt)^2)
    expansion_ok = True
    j = 1000.0
    for gt in (1e-3, 1e-4, 1e-5):
        out = decay_moments(MomentSet.css_along_y(j), 1.0, gt)
        second_order = abs(out.jx_sq - (j / 2 + (j * j - j / 2) * gt))
        expansion_ok &= second_order <= 3.0 * j * j * gt * gt
        leading = abs(out.jx_sq - (j / 2) * (1 + 2 * j * gt))
        expansion_ok &= leading <= (j / 2) * gt + 3.0 * j * j * gt * gt
        expansion_ok &= abs(out.jy_mean - j * (1 - gt / 2)) <= j * gt * gt
    ok = conserved and expansion_ok
    assert report("10", ok, f"conservation exact: {conserved}, expansion: {expansion_ok}")


def test_criterion_11_husimi_normalization_all_stages():
    t0 = time.perf_counter()
    ops = cached_ops(40)
    spec = scain_spec()
    grid = default_grid(361, 721)
    worst = 0.0
    for n_pulses in range(len(spec.pulses) + 1):  # stages A..J
        state = run(spec, ops.dims, ops, np.pi / 80, n_pulses=n_pulses)
        total = quadrature(qpd_field(state, grid), 40)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    assert report("11", ok, f"worst |quadrature - 1| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_12_excess_noise_orderings():
    n = 10_000
    table = noise_model_table(n)
    cross = {name: excess_noise_crossover(row, n) for name, row in table.items()}
    r_unit = cross["csd-scain"]
    ok = (
        abs(cross["esp"] / cross["crain"] - 1.0) < 1e-12
        and abs(cross["crain"] / r_unit - math.sqrt(n)) <= 0.01 * math.sqrt(n)
        and abs(cross["cd-scain"] / cross["crain"] - math.sqrt(n)) <= 0.01 * math.sqrt(n)
        and abs(cross["cd-scain"] / r_unit - n) <= 0.01 * n
        # TACT sits in the unit group up to the table's sqrt(2) convention
        and 1.0 <= cross["tact"] / r_unit <= math.sqrt(2) + 1e-12
    )
    assert report(
        "12",
        ok,
        "crossovers 1 : sqrt(N) : N via "
        f"csd {r_unit:g} / crain {cross['crain']:g} / cd {cross['cd-scain']:g}; "
        f"tact/csd = {cross['tact'] / r_unit:.4f}",
    )
