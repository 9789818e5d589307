import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (CapacityError, DetectionConfig, DomainError, InvalidArgumentError, NoiseModel,
                    mu1, noise_probability, qubit_fidelity, quantum_regime_window, simulate_run,
                    snr_analytic)

# Measured sweep rows: (t_s ms, eta, mu1 +- err, p_n, snr +- err), mu = 2.
TABLE_ROWS = [
    (0.25, 0.065, 0.24, 0.04, 0.016, 8.0, 2.0),
    (0.50, 0.051, 0.20, 0.04, 0.010, 10.0, 2.0),
    (0.75, 0.035, 0.32, 0.05, 0.011, 6.0, 1.0),
    (1.00, 0.023, 0.30, 0.06, 0.007, 7.0, 2.0),
    (1.25, 0.014, 0.69, 0.12, 0.010, 3.0, 1.0),
    (1.50, 0.010, 0.96, 0.18, 0.009, 2.0, 1.0),
]


class TestNoiseProbability:
    def test_no_rf_floor(self):
        model = NoiseModel(optical_readout_noise=5e-3, detector_dark=0.0, residual_population=0.0)
        assert noise_probability(model) == pytest.approx(5e-3)

    def test_residual_population_adds_floor(self):
        model = NoiseModel(optical_readout_noise=5e-3, residual_coupling=1.0,
                           residual_population=0.002)
        assert noise_probability(model) == pytest.approx(7e-3)

    def test_all_zero(self):
        assert noise_probability(NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_monotone_in_residual_population(self):
        vals = [noise_probability(NoiseModel(residual_population=r))
                for r in np.linspace(0.0, 0.5, 11)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rho_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            noise_probability(NoiseModel(residual_population=0.6))


class TestAnalyticFigures:
    def test_snr_table_row(self):
        assert snr_analytic(2.0, 0.051, 0.010) == pytest.approx(10.2)
        assert abs(snr_analytic(2.0, 0.051, 0.010) - 10.0) <= 2.0

    def test_snr_no_dd_run(self):
        val = snr_analytic(1.1, 0.057, 0.005)
        assert val == pytest.approx(12.54)
        assert abs(val - 11.0) <= 2.0

    def test_snr_zero_input(self):
        assert snr_analytic(0.0, 0.5, 0.01) == 0.0

    def test_snr_noise_free_is_domain_error(self):
        with pytest.raises(DomainError, match="noise-free"):
            snr_analytic(1.0, 0.1, 0.0)

    def test_snr_monotone_in_noise(self):
        vals = [snr_analytic(2.0, 0.05, p) for p in (1e-3, 5e-3, 2e-2, 0.1)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_mu1_values(self):
        assert mu1(5e-3, 0.057) == pytest.approx(0.0877, abs=5e-4)
        assert abs(mu1(5e-3, 0.057) - 0.1) <= 0.02
        assert mu1(16e-3, 0.065) == pytest.approx(0.246, abs=5e-4)
        assert abs(mu1(16e-3, 0.065) - 0.24) <= 0.04
        assert mu1(0.0, 0.5) == 0.0

    def test_mu1_zero_efficiency(self):
        with pytest.raises(DomainError):
            mu1(5e-3, 0.0)

    def test_table_consistency_sweep(self):
        for _, eta, m1, dm1, p_n, snr, dsnr in TABLE_ROWS:
            assert abs(snr_analytic(2.0, eta, p_n) - snr) <= dsnr
            assert abs(mu1(p_n, eta) - m1) <= dm1


class TestFidelity:
    def test_noiseless_limit(self):
        for p in (0.01, 0.3, 1.0):
            assert qubit_fidelity(0.0, p).fidelity == 1.0

    def test_classical_boundary(self):
        res = qubit_fidelity(0.37, 0.37)
        assert res.fidelity == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert not res.quantum

    def test_point_value(self):
        res = qubit_fidelity(0.2, 1.0)
        assert res.fidelity == pytest.approx(6.0 / 7.0, abs=1e-15)
        assert res.quantum

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_fidelity(0.2, 0.0)
        with pytest.raises(InvalidArgumentError):
            qubit_fidelity(-0.1, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(m=st.floats(0.0, 50.0), p=st.floats(0.01, 1.0))
    def test_bounds(self, m, p):
        f = qubit_fidelity(m, p).fidelity
        assert 0.5 < f <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(m=st.floats(1e-6, 10.0), p=st.floats(0.01, 1.0))
    def test_strictly_decreasing_in_mu1_over_p(self, m, p):
        f1 = qubit_fidelity(m, p).fidelity
        f2 = qubit_fidelity(m * 1.5, p).fidelity
        assert f2 < f1

    def test_limit_half(self):
        assert qubit_fidelity(1e9, 1.0).fidelity == pytest.approx(0.5, abs=1e-8)


class TestQuantumWindow:
    def test_open_window(self):
        w = quantum_regime_window(0.2)
        assert (w.lower, w.upper) == (0.2, 1.0)
        assert not w.empty

    def test_nearly_closed(self):
        w = quantum_regime_window(0.96)
        assert not w.empty

    def test_empty_at_and_above_one(self):
        assert quantum_regime_window(1.0).empty
        assert quantum_regime_window(1.2).empty


class TestSimulateRun:
    def test_deterministic_histograms(self):
        a = simulate_run(DetectionConfig(2.0, 50_000), 0.051, 0.010, seed=5)
        b = simulate_run(DetectionConfig(2.0, 50_000), 0.051, 0.010, seed=5)
        np.testing.assert_array_equal(a.counts_with, b.counts_with)
        np.testing.assert_array_equal(a.counts_without, b.counts_without)
        assert a.snr.value == b.snr.value

    def test_streams_differ(self):
        a = simulate_run(DetectionConfig(2.0, 50_000), 0.051, 0.010, seed=5, stream=0)
        b = simulate_run(DetectionConfig(2.0, 50_000), 0.051, 0.010, seed=5, stream=1)
        assert not np.array_equal(a.counts_with, b.counts_with)

    def test_matches_analytic_within_three_sigma(self):
        stats = simulate_run(DetectionConfig(2.0, 100_000), 0.051, 0.010, seed=1)
        expected = snr_analytic(2.0, 0.051, 0.010)
        assert abs(stats.snr.value - expected) <= 3.0 * stats.snr.stderr

    def test_zero_input_consistent_with_zero_snr(self):
        stats = simulate_run(DetectionConfig(0.0, 100_000), 0.051, 0.010, seed=2)
        assert abs(stats.snr.value) <= 3.0 * stats.snr.stderr

    def test_identity_mu1_snr(self):
        stats = simulate_run(DetectionConfig(2.0, 100_000), 0.051, 0.010, seed=3)
        assert stats.snr.value * stats.mu1.value == pytest.approx(2.0, rel=1e-12)

    def test_histogram_totals_are_counts(self):
        detection = DetectionConfig(1.0, 10_000, gate_duration_s=2e-6, gate_bins=25)
        stats = simulate_run(detection, 0.05, 0.01, seed=4)
        assert stats.counts_with.sum() >= 0
        assert stats.counts_with.size == 25
        assert np.all(stats.counts_with >= 0) and np.all(stats.counts_without >= 0)
        assert stats.bin_edges_s.size == 26

    def test_estimates_cover_truth(self):
        stats = simulate_run(DetectionConfig(2.0, 200_000), 0.051, 0.010, seed=6)
        assert abs(stats.eta.value - 0.051) <= 4.0 * stats.eta.stderr
        assert abs(stats.p_n.value - 0.010) <= 4.0 * stats.p_n.stderr

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            simulate_run(DetectionConfig(1.0, 0), 0.1, 0.01)

    @pytest.mark.parametrize("mu,trials", [(1e308, 100_000), (2.0, 10 ** 9)])
    def test_photon_count_is_bounded_before_drawing(self, mu, trials):
        # mu 1e308 once reached numpy's "lam value too large"
        with pytest.raises(CapacityError, match="photons"):
            simulate_run(DetectionConfig(mu, trials), 0.05, 0.01)
