"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 2b is implemented exactly as specified and is expected to fail:
with a per-sequence error of 0.002 the two-level mixing closed form gives
rho_g(100) = 0.165, which no correct implementation can bring under the
stated 0.1 bound (see the decisions ledger).
"""

import math
import time

import numpy as np

from afcmem import (AdiabaticPulseSpec, CapacityError, DetectionConfig, DetuningDistribution,
                    ModesConfig, PulseSpec, build_comb, build_sequence,
                    calibrate_systematic_error, coherence_1e_time, comb_dephasing_factor,
                    dephasing_envelope, free_evolve, inversion_error_profile, memory_timeline,
                    mu1, qubit_fidelity, quantum_regime_window, sample_detunings,
                    sequence_population_error, simulate_run, snr_analytic, thermalization_curve,
                    thermalization_monte_carlo_uniform)
from afcmem.afc import CombConfig
from afcmem.pulses import IntegratorConfig
from oracles import (adiabaticity, collective_coherence, find_echo_peak, integrate_bloch,
                     landau_zener_error, with_transverse_states)

GAUSS27 = DetuningDistribution("gaussian", 27e3)

# mu = 2 measured rows: (eta, mu1, mu1_err, p_n, snr, snr_err)
TABLE1 = [
    (0.065, 0.24, 0.04, 0.016, 8.0, 2.0),
    (0.051, 0.20, 0.04, 0.010, 10.0, 2.0),
    (0.035, 0.32, 0.05, 0.011, 6.0, 1.0),
    (0.023, 0.30, 0.06, 0.007, 7.0, 2.0),
    (0.014, 0.69, 0.12, 0.010, 3.0, 1.0),
    (0.010, 0.96, 0.18, 0.009, 2.0, 1.0),
]


def _report(name: str, ok: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _mc_1e_time(n: int, seed: int) -> float:
    ens = with_transverse_states(sample_detunings(GAUSS27, n, seed))

    def crossing(times):
        amps = np.array([abs(collective_coherence(free_evolve(ens, float(t))))
                         for t in times])
        k = int(np.argmax(amps < math.exp(-1)))
        t0, t1 = times[k - 1], times[k]
        a0, a1 = amps[k - 1], amps[k]
        return t0, t1, float(t0 + (a0 - math.exp(-1)) / (a0 - a1) * (t1 - t0))

    t0, t1, _ = crossing(np.linspace(5e-6, 40e-6, 13))
    return crossing(np.linspace(t0, t1, 15))[2]


def test_criterion_1_t2_star_envelope():
    start = time.perf_counter()
    closed = coherence_1e_time(GAUSS27)
    mc = _mc_1e_time(100_000, seed=1)
    elapsed = time.perf_counter() - start
    target = 19.6e-6
    ok = (abs(closed - target) / target < 0.02
          and abs(mc - target) / target < 0.02
          and elapsed < 1.0)
    _report("1 T2* envelope", ok,
            f"closed={closed * 1e6:.3f}us mc={mc * 1e6:.3f}us target=19.6us "
            f"elapsed={elapsed:.2f}s")


def test_criterion_2a_xx_thermalization():
    curve = thermalization_monte_carlo_uniform(0.036, n_spins=10_000, n_max=50, seed=2)
    closed50 = float(curve.rho_g[50])
    mc50 = float(curve.rho_g_mc[50])
    ok = (0.45 <= closed50 <= 0.5
          and abs(mc50 - closed50) <= 3.0 * float(curve.stderr[50]))
    _report("2a thermalization xx", ok,
            f"rho_g(50) closed={closed50:.4f} mc={mc50:.4f} "
            f"3*stderr={3 * float(curve.stderr[50]):.4f}")


def test_criterion_2b_xy4_flatness_as_specified():
    # Stated bound: rho_g(100) <= 0.1 at eps_seq = 0.002.  The closed form
    # itself gives 0.165, so this criterion cannot pass; kept as specified.
    rho100 = float(thermalization_curve(0.002, 100).rho_g[100])
    _report("2b thermalization xy4 (criterion as stated)", rho100 <= 0.1,
            f"rho_g(100)={rho100:.4f} vs stated bound 0.1")


def test_criterion_3_robustness_ordering():
    eps = calibrate_systematic_error(0.036, kind="xx", t_s=0.5e-3)
    pulse = PulseSpec(systematic_error=eps)
    xx_seq = build_sequence("xx", 0.5e-3, pulse)
    xy4_seq = build_sequence("xy4", 0.5e-3, pulse)
    sequence_population_error(xx_seq)  # warm-up before timing
    start = time.perf_counter()
    xx_err = sequence_population_error(xx_seq)
    xy4_err = sequence_population_error(xy4_seq)
    elapsed = time.perf_counter() - start
    ok = (abs(xx_err - 0.036) < 1e-9 and xy4_err <= 0.0036 and elapsed < 1e-3)
    _report("3 robustness ordering", ok,
            f"eps={eps:.5f} xx={xx_err:.4f} xy4={xy4_err:.2e} "
            f"suppression={xx_err / xy4_err:.0f}x elapsed={elapsed * 1e3:.3f}ms")


def test_criterion_4_table_consistency():
    mu_in = 2.0
    worst = 0.0
    ok = True
    for eta, m1, dm1, p_n, snr, dsnr in TABLE1:
        snr_calc = snr_analytic(mu_in, eta, p_n)
        mu1_calc = mu1(p_n, eta)
        ok &= abs(snr_calc - snr) <= dsnr and abs(mu1_calc - m1) <= dm1
        worst = max(worst, abs(snr_calc - snr) / dsnr, abs(mu1_calc - m1) / dm1)
    _report("4 measured-sweep consistency", ok,
            f"6 rows, worst margin {worst:.2f} of quoted error")


def test_criterion_5_fidelity_algebra():
    ok = all(qubit_fidelity(0.0, p).fidelity == 1.0 for p in (0.05, 0.5, 1.0))
    ok &= qubit_fidelity(0.3, 0.3).fidelity == 2.0 / 3.0
    ok &= abs(qubit_fidelity(0.2, 1.0).fidelity - 6.0 / 7.0) < 1e-15
    ok &= not quantum_regime_window(0.999).empty
    ok &= quantum_regime_window(1.0).empty
    ok &= quantum_regime_window(1.2).empty
    _report("5 fidelity algebra", ok,
            "F(0,p)=1, F(p=mu1)=2/3, F(0.2,1)=6/7, window empty iff mu1>=1")


def test_criterion_6_echo_timing():
    ok = True
    details = []
    for finesse in (2.0, 5.0, 10.0, 40.0):
        comb = build_comb(CombConfig(finesse=finesse))
        t_peak, _ = find_echo_peak(comb)
        step = (1.7 - 0.3) * comb.config.afc_delay_s / 800
        ok &= abs(t_peak - comb.config.afc_delay_s) <= step
        details.append(f"F={finesse:g}:{t_peak * 1e6:.3f}us")
    factor = comb_dephasing_factor(CombConfig(finesse=10.0))
    expected = math.exp(-7.0 / 100.0)
    # independent quadrature oracle over one Gaussian tooth
    sigma = (1.0 / 10.0) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x = np.linspace(-8 * sigma, 8 * sigma, 20001)
    dens = np.exp(-0.5 * (x / sigma) ** 2)
    oracle = abs(np.trapezoid(dens * np.exp(2j * math.pi * x), x)
                 / np.trapezoid(dens, x)) ** 2
    ok &= abs(factor - expected) / factor < 0.05
    ok &= abs(factor - oracle) / factor < 0.05
    _report("6 echo timing", ok,
            f"peaks {' '.join(details)}; F=10 intensity {factor:.4f} "
            f"vs exp(-7/F^2)={expected:.4f}, oracle={oracle:.4f}")


def test_criterion_7_adiabatic_oracle():
    up = np.array([0.0, 0.0, 1.0])
    ok = True
    for rabi in (15e3, 10e3):
        pulse = AdiabaticPulseSpec(rabi, 200e3, 500e-6, envelope="linear")
        assert adiabaticity(pulse) > 2.0
        ode = (1.0 + integrate_bloch(up, pulse)[2]) / 2.0
        ratio = ode / landau_zener_error(pulse)
        ok &= 0.5 <= ratio <= 2.0
    strong = AdiabaticPulseSpec(15e3, 200e3, 500e-6, envelope="linear")
    z1 = integrate_bloch(up, strong, detuning_hz=13e3)[2]
    z2 = integrate_bloch(up, strong, detuning_hz=13e3,
                         cfg=IntegratorConfig(strong.duration_s / 10_000))[2]
    richardson = abs(z1 - z2)
    ok &= richardson < 1e-6
    default = AdiabaticPulseSpec(30e3, 200e3, 500e-6, envelope="sech")
    prof = inversion_error_profile(default, GAUSS27, n_samples=41)
    ok &= 0.001 <= prof.mean_error <= 0.02
    _report("7 adiabatic-pulse oracle", ok,
            f"LZ ratios in [0.5,2], richardson={richardson:.2e}, "
            f"line mean error={prof.mean_error:.3%}")


def test_criterion_8_monte_carlo_detection():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for eta, _, _, p_n, _, _ in TABLE1:
        stats = simulate_run(DetectionConfig(2.0, trials=100_000), eta, p_n, seed=8)
        target = snr_analytic(2.0, eta, p_n)
        pull = abs(stats.snr.value - target) / stats.snr.stderr
        ok &= pull <= 3.0
        worst = max(worst, pull)
    a = simulate_run(DetectionConfig(2.0, trials=100_000), 0.051, 0.010, seed=9)
    b = simulate_run(DetectionConfig(2.0, trials=100_000), 0.051, 0.010, seed=9)
    ok &= (a.counts_with.tobytes() == b.counts_with.tobytes()
           and a.counts_without.tobytes() == b.counts_without.tobytes())
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report("8 Monte Carlo detection", ok,
            f"worst pull {worst:.2f} sigma over 6 rows, elapsed={elapsed:.2f}s, "
            "histograms byte-identical")


def test_criterion_9_noise_floor():
    from afcmem import NoiseModel, noise_probability

    def p_n(residual_population):
        return noise_probability(NoiseModel(optical_readout_noise=5e-3, residual_coupling=1.0,
                                            residual_population=residual_population))

    added = p_n(0.002) - p_n(0.0)
    ok = 1e-3 <= added <= 3e-3
    _report("9 noise floor", ok, f"added noise at residual population 0.2% is {added:.1e}")


def test_criterion_10_timeline_exactness():
    delta, t_s, mode_len = 100e3, 0.5e-3, 1.5e-6
    tl = memory_timeline(ModesConfig(5, mode_len), delta, t_s)
    ok = tl.total_s == (1.0 / delta) + t_s
    ok &= all(t_out == t_in + tl.total_s for t_in, t_out in tl.mode_slots)
    ok &= len(tl.mode_slots) == 5
    try:
        memory_timeline(ModesConfig(6, mode_len), delta, t_s)
        sixth_raises = False
    except CapacityError:
        sixth_raises = True
    ok &= sixth_raises
    _report("10 timeline exactness", ok,
            f"total={tl.total_s * 1e6:.1f}us exact for 5 modes; sixth mode raises")
