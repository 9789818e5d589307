import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (DetuningDistribution, InvalidArgumentError, SpinEnsemble,
                    coherence_1e_time, collective_coherence, dephasing_envelope, free_evolve,
                    grid_ensemble, sample_detunings, with_transverse_states)

GAUSS27 = DetuningDistribution("gaussian", 27e3)


class TestSampling:
    def test_gaussian_sample_std_matches_fwhm(self):
        ens = sample_detunings(GAUSS27, 100_000, seed=1)
        expected = 27e3 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        assert abs(ens.detunings_hz.std() - expected) / expected < 0.01

    def test_sample_mean_near_zero(self):
        ens = sample_detunings(GAUSS27, 100_000, seed=1)
        assert abs(ens.detunings_hz.mean()) < 5 * ens.detunings_hz.std() / math.sqrt(ens.n)

    def test_single_spin(self):
        ens = sample_detunings(GAUSS27, 1, seed=9)
        assert ens.n == 1
        np.testing.assert_array_equal(ens.states, [[0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(ens.weights, [1.0])

    def test_deterministic_in_seed(self):
        a = sample_detunings(GAUSS27, 10_000, seed=7)
        b = sample_detunings(GAUSS27, 10_000, seed=7)
        np.testing.assert_array_equal(a.detunings_hz, b.detunings_hz)

    def test_different_seed_differs(self):
        a = sample_detunings(GAUSS27, 100, seed=7)
        b = sample_detunings(GAUSS27, 100, seed=8)
        assert not np.array_equal(a.detunings_hz, b.detunings_hz)

    def test_lorentzian_tails_truncated(self):
        dist = DetuningDistribution("lorentzian", 1e3)
        ens = sample_detunings(dist, 200_000, seed=2)
        assert np.abs(ens.detunings_hz).max() <= 50.0 * dist.fwhm_hz

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            sample_detunings(GAUSS27, 0, seed=1)
        with pytest.raises(InvalidArgumentError):
            DetuningDistribution("gaussian", 0.0)
        with pytest.raises(InvalidArgumentError):
            DetuningDistribution("voigt", 27e3)


def _one_spin(detuning_hz, state):
    from afcmem import SpinEnsemble
    return SpinEnsemble(np.array([detuning_hz], dtype=float),
                        np.array([state], dtype=float), np.array([1.0]))


class TestFreeEvolve:
    def test_resonant_spin_unchanged(self):
        ens = _one_spin(0.0, [math.cos(0.3), math.sin(0.3), 0.0])
        out = free_evolve(ens, 1e-3)
        np.testing.assert_allclose(out.states, ens.states, atol=1e-15)

    def test_quarter_turn(self):
        # 100 kHz for 2.5 us is a right-handed quarter turn: +x -> +y
        ens = _one_spin(100e3, [1.0, 0.0, 0.0])
        out = free_evolve(ens, 2.5e-6)
        np.testing.assert_allclose(out.states[0], [0.0, 1.0, 0.0], atol=1e-9)

    def test_polar_ensemble_has_no_coherence(self):
        ens = sample_detunings(GAUSS27, 1000, seed=3)
        assert collective_coherence(ens) == 0
        out = free_evolve(ens, 123e-6)
        assert collective_coherence(out) == 0

    def test_free_evolve_matches_reference_bit_for_bit(self):
        # reference: the z rotation in whole-array expressions; free_evolve
        # computes it in place and must round exactly alike
        rng = np.random.default_rng(3)
        states, det, dt = rng.normal(size=(400, 3)), rng.normal(0.0, 27e3, 400), 17e-6
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        c, s = np.cos(2.0 * math.pi * dt * det), np.sin(2.0 * math.pi * dt * det)
        x, y = states[:, 0], states[:, 1]
        expected = np.stack([c * x - s * y, s * x + c * y, states[:, 2]], axis=1)
        ens = SpinEnsemble(det, states, np.full(400, 1.0 / 400))
        np.testing.assert_array_equal(free_evolve(ens, dt).states, expected)

    def test_negative_dt_rejected(self):
        ens = sample_detunings(GAUSS27, 10, seed=1)
        with pytest.raises(InvalidArgumentError):
            free_evolve(ens, -1e-6)

    @settings(max_examples=25, deadline=None)
    @given(dt=st.floats(0, 1e-3), seed=st.integers(0, 2**20))
    def test_norm_preserved(self, dt, seed):
        ens = with_transverse_states(sample_detunings(GAUSS27, 50, seed=seed))
        out = free_evolve(ens, dt)
        np.testing.assert_allclose(np.linalg.norm(out.states, axis=1), 1.0, atol=1e-9)


class TestCoherence:
    def test_fully_phased(self):
        ens = with_transverse_states(sample_detunings(GAUSS27, 500, seed=4))
        amp = collective_coherence(ens)
        assert abs(abs(amp) - 1.0) < 1e-12
        assert abs(np.angle(amp)) < 1e-12

    def test_weighted_grid_matches_envelope(self):
        # stratified quadrature should track the closed form tightly
        ens = with_transverse_states(grid_ensemble(GAUSS27, 4096))
        for t in (5e-6, 15e-6, 30e-6):
            amp = abs(collective_coherence(free_evolve(ens, t)))
            assert abs(amp - dephasing_envelope(GAUSS27, t)) < 5e-4


class TestEnvelope:
    def test_value_at_zero(self):
        assert dephasing_envelope(GAUSS27, 0.0) == 1.0
        assert dephasing_envelope(DetuningDistribution("lorentzian", 27e3), 0.0) == 1.0

    def test_one_over_e_time(self):
        t_star = coherence_1e_time(GAUSS27)
        assert abs(t_star - 19.6e-6) < 0.1e-6
        assert abs(dephasing_envelope(GAUSS27, t_star) - math.exp(-1)) < 1e-12

    def test_five_microseconds(self):
        # direct evaluation of the Gaussian envelope formula
        expected = math.exp(-(math.pi * 27e3 * 5e-6) ** 2 / (4 * math.log(2)))
        assert abs(expected - 0.937) < 5e-4
        assert dephasing_envelope(GAUSS27, 5e-6) == pytest.approx(expected, abs=1e-15)

    def test_five_microseconds_monte_carlo(self):
        ens = with_transverse_states(sample_detunings(GAUSS27, 1_000_000, seed=11))
        amp = abs(collective_coherence(free_evolve(ens, 5e-6)))
        assert abs(amp - dephasing_envelope(GAUSS27, 5e-6)) < 0.005

    def test_lorentzian_form(self):
        dist = DetuningDistribution("lorentzian", 27e3)
        t = 10e-6
        assert dephasing_envelope(dist, t) == pytest.approx(math.exp(-math.pi * 27e3 * t))

    def test_monte_carlo_tracks_closed_form(self):
        # within 5*n^(-1/2) + 1e-3 out to five dephasing times
        n = 10_000
        ens = with_transverse_states(sample_detunings(GAUSS27, n, seed=5))
        tol = 5.0 / math.sqrt(n) + 1e-3
        for t in np.linspace(0.0, 5.0 * coherence_1e_time(GAUSS27), 21):
            amp = abs(collective_coherence(free_evolve(ens, float(t))))
            assert abs(amp - dephasing_envelope(GAUSS27, float(t))) < tol

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0, 1e-3))
    def test_bounds_and_monotonicity(self, t):
        e1 = dephasing_envelope(GAUSS27, t)
        e2 = dephasing_envelope(GAUSS27, t * 1.5)
        assert 0.0 <= e2 <= e1 <= 1.0


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        from afcmem import SpinEnsemble
        with pytest.raises(InvalidArgumentError):
            SpinEnsemble(np.zeros(2), np.zeros((2, 3)), np.array([0.4, 0.4]))

    def test_norms_capped(self):
        from afcmem import SpinEnsemble
        with pytest.raises(InvalidArgumentError):
            SpinEnsemble(np.zeros(1), np.array([[1.1, 0.0, 0.0]]), np.array([1.0]))

    def test_ensembles_are_immutable(self):
        ens = sample_detunings(GAUSS27, 10, seed=1)
        with pytest.raises(ValueError):
            ens.states[0, 0] = 2.0
