import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (AdiabaticPulseSpec, DetuningDistribution, IntegrationAccuracyError,
                    IntegratorConfig, InvalidArgumentError, PulseSpec, inversion_error_profile,
                    rotate_states)
from afcmem.pulses import jitter_angle, rotation_matrix
from afcmem.sequences import SEQUENCE_PHASES, calibrate_systematic_error
from oracles import adiabaticity, integrate_bloch, landau_zener_error, reference_rotate

UP = np.array([0.0, 0.0, 1.0])
ON_RESONANCE = np.zeros(1)
GAUSS27 = DetuningDistribution("gaussian", 27e3)

# The two linear-chirp benchmark pulses: adiabaticity 5.55 and 2.47.
LZ_STRONG = AdiabaticPulseSpec(15e3, 200e3, 500e-6, envelope="linear")
LZ_WEAK = AdiabaticPulseSpec(10e3, 200e3, 500e-6, envelope="linear")

# Default inversion pulse of the experiment presets.
SECH_DEFAULT = AdiabaticPulseSpec(30e3, 200e3, 500e-6, envelope="sech")


def generalized_rabi_error(rabi_hz, detuning_hz, area):
    """Oracle: inversion failure 1 - P with P the generalized Rabi formula."""
    g = math.hypot(rabi_hz, detuning_hz)
    p = (rabi_hz / g) ** 2 * math.sin(area * g / rabi_hz / 2.0) ** 2
    return 1.0 - p


class TestInstantaneousRotations:
    def test_perfect_inversion(self):
        out = rotate_states(UP[None], PulseSpec(), ON_RESONANCE)[0]
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-12)

    def test_ten_percent_angle_error(self):
        out = rotate_states(UP[None], PulseSpec(systematic_error=0.1), ON_RESONANCE)[0]
        assert out[2] == pytest.approx(-math.cos(0.1 * math.pi), abs=1e-12)
        leakage = (1.0 + out[2]) / 2.0
        assert leakage == pytest.approx(math.sin(0.05 * math.pi) ** 2, abs=1e-12)

    def test_finite_rabi_at_detuning_equal_rabi(self):
        out = rotate_states(UP[None], PulseSpec(rabi_hz=50e3), np.array([50e3]))[0]
        p_inv = (1.0 - out[2]) / 2.0
        assert p_inv == pytest.approx(0.5 * math.sin(math.pi * math.sqrt(2) / 2) ** 2, abs=1e-12)
        assert p_inv == pytest.approx(0.316, abs=1e-3)

    @pytest.mark.parametrize("detuning", [0.0, 10e3, 37e3, 80e3])
    def test_finite_rabi_matches_generalized_rabi_oracle(self, detuning):
        out = rotate_states(UP[None], PulseSpec(rabi_hz=50e3), np.array([detuning]))[0]
        err = (1.0 + out[2]) / 2.0
        assert err == pytest.approx(generalized_rabi_error(50e3, detuning, math.pi), abs=1e-12)

    def test_double_pi_is_identity(self):
        state = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        pulse = PulseSpec(axis_phase=0.7)
        out = rotate_states(rotate_states(state[None], pulse, ON_RESONANCE), pulse, ON_RESONANCE)
        np.testing.assert_allclose(out[0], state, atol=1e-9)

    def test_jitter_deterministic_per_index(self):
        pulse = PulseSpec(jitter_sd=0.05)
        a, b, c = (rotate_states(UP[None], pulse, ON_RESONANCE,
                                 jitter=jitter_angle(pulse, 3, pulse_index))
                   for pulse_index in (0, 0, 1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("jitter", [0.0, 0.01, -0.01])
    @pytest.mark.parametrize("error", [0.01, calibrate_systematic_error(0.036)])
    def test_resonant_matrix_matches_reference_bit_for_bit(self, error, jitter):
        # the 3x3 route every preset takes: the closed form must round exactly
        # as the vector formula does on the three basis vectors
        rng = np.random.default_rng(5)
        phases = sorted({p for kind in SEQUENCE_PHASES.values() for p in kind})
        for phase in phases + list(rng.uniform(0.0, 2.0 * math.pi, 20)):
            pulse = PulseSpec(axis_phase=phase, systematic_error=error)
            expected = reference_rotate(np.eye(3), pulse, np.zeros(3), jitter).T
            np.testing.assert_array_equal(rotation_matrix(pulse, jitter=jitter), expected)

    @pytest.mark.parametrize("phase", [0.0, 0.9, math.pi / 2])
    def test_finite_rabi_stack_matches_reference(self, phase):
        # two ulps of 1: the closed form rounds (n_i n_j)(1 - c), the vector
        # formula n_i (n_j (1 - c))
        det = np.random.default_rng(5).normal(0.0, 27e3, 500)
        pulse = PulseSpec(axis_phase=phase, systematic_error=0.03, rabi_hz=40e3)
        stack = rotation_matrix(pulse, det, 0.01)
        assert stack.shape == (3, 3, 500)
        for j, unit in enumerate(np.eye(3)):
            expected = reference_rotate(np.broadcast_to(unit, (500, 3)), pulse, det, 0.01)
            np.testing.assert_allclose(stack[:, j].T, expected, rtol=0.0, atol=4.5e-16)
        one = rotation_matrix(pulse, det[7], 0.01)
        assert one.shape == (3, 3)
        np.testing.assert_array_equal(one, stack[:, :, 7])

    @pytest.mark.parametrize("rabi", [None, 40e3])
    def test_rotate_states_matches_reference(self, rabi):
        rng = np.random.default_rng(5)
        det = rng.normal(0.0, 27e3, 500)
        pulse = PulseSpec(axis_phase=0.9, systematic_error=0.03, rabi_hz=rabi)
        for states in (rng.normal(size=(500, 3)), np.broadcast_to(UP, (500, 3))):
            expected = reference_rotate(states, pulse, det, 0.01)
            bound = 1e-15 * np.maximum(1.0, np.linalg.norm(states, axis=1))[:, None]
            assert (np.abs(rotate_states(states, pulse, det, jitter=0.01) - expected)
                    <= bound).all()

    @settings(max_examples=60, deadline=None)
    @given(phase=st.floats(0, 2 * math.pi), eps=st.floats(-0.2, 0.2),
           rabi=st.one_of(st.none(), st.floats(1e3, 1e5)),
           detuning=st.floats(-5e4, 5e4),
           x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_rotation_preserves_norm(self, phase, eps, rabi, detuning, x, y):
        z = math.sqrt(max(0.0, 1.0 - min(1.0, x * x + y * y)))
        state = np.array([x, y, z]) / max(1.0, np.linalg.norm([x, y, z]))
        pulse = PulseSpec(axis_phase=phase, systematic_error=eps, rabi_hz=rabi)
        out = rotate_states(state[None], pulse, np.array([detuning]))[0]
        assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-12

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgumentError):
            PulseSpec(nominal_angle=0.0)
        with pytest.raises(InvalidArgumentError):
            PulseSpec(jitter_sd=-0.1)
        with pytest.raises(InvalidArgumentError):
            PulseSpec(rabi_hz=0.0)

    @pytest.mark.parametrize("kwargs", [{"systematic_error": 1e308},
                                        {"systematic_error": -1e308},
                                        {"systematic_error": 1.01},
                                        {"jitter_sd": 1e308}, {"jitter_sd": 1.01}])
    def test_angle_errors_are_bounded(self, kwargs):
        # beyond 100% of the nominal angle, and angles would overflow to inf
        with pytest.raises(InvalidArgumentError):
            PulseSpec(**kwargs)
        edge = {k: math.copysign(1.0, v) for k, v in kwargs.items()}
        assert np.isfinite(rotate_states(UP[None], PulseSpec(**edge), ON_RESONANCE)).all()


class TestBlochIntegration:
    def test_no_drive_leaves_state(self):
        pulse = AdiabaticPulseSpec(0.0, 200e3, 500e-6, envelope="linear")
        out = integrate_bloch(UP, pulse, detuning_hz=0.0)
        np.testing.assert_allclose(out, UP, atol=1e-12)

    def test_landau_zener_strong(self):
        assert landau_zener_error(LZ_STRONG) == pytest.approx(0.004, abs=5e-4)
        ode_err = (1.0 + integrate_bloch(UP, LZ_STRONG)[2]) / 2.0
        ratio = ode_err / landau_zener_error(LZ_STRONG)
        assert 0.5 <= ratio <= 2.0

    def test_landau_zener_weak(self):
        assert landau_zener_error(LZ_WEAK) == pytest.approx(0.085, abs=5e-3)
        ode_err = (1.0 + integrate_bloch(UP, LZ_WEAK)[2]) / 2.0
        ratio = ode_err / landau_zener_error(LZ_WEAK)
        assert 0.5 <= ratio <= 2.0

    def test_adiabaticity_values(self):
        assert adiabaticity(LZ_STRONG) == pytest.approx(5.55, abs=0.01)
        assert adiabaticity(LZ_WEAK) == pytest.approx(2.47, abs=0.01)

    @pytest.mark.parametrize("pulse", [LZ_STRONG, SECH_DEFAULT])
    def test_richardson_halving(self, pulse):
        z1 = integrate_bloch(UP, pulse, detuning_hz=13e3)[2]
        cfg = IntegratorConfig(pulse.duration_s / 10000)
        z2 = integrate_bloch(UP, pulse, detuning_hz=13e3, cfg=cfg)[2]
        assert abs(z1 - z2) < 1e-6

    def test_norm_preserved_at_default_step(self):
        out = integrate_bloch(UP, LZ_STRONG, detuning_hz=54e3)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_coarse_step_raises(self):
        fast = AdiabaticPulseSpec(15e3, 800e3, 500e-6, envelope="linear")
        cfg = IntegratorConfig(fast.duration_s / 1000)
        with pytest.raises(IntegrationAccuracyError):
            integrate_bloch(UP, fast, detuning_hz=54e3, cfg=cfg)

    def test_step_floor_enforced(self):
        cfg = IntegratorConfig(LZ_STRONG.duration_s / 999)
        with pytest.raises(InvalidArgumentError):
            integrate_bloch(UP, LZ_STRONG, cfg=cfg)

    def test_lz_estimate_requires_linear(self):
        with pytest.raises(InvalidArgumentError):
            landau_zener_error(SECH_DEFAULT)


class TestInversionProfile:
    def test_ideal_pulse_is_exact_everywhere(self):
        prof = inversion_error_profile(PulseSpec(), GAUSS27, n_samples=21)
        np.testing.assert_allclose(prof.errors, 0.0, atol=1e-12)
        assert prof.mean_error == pytest.approx(0.0, abs=1e-12)

    def test_default_sech_pulse_mean_error_and_flatness(self):
        prof = inversion_error_profile(SECH_DEFAULT, GAUSS27, n_samples=41)
        assert 0.001 <= prof.mean_error <= 0.02
        center = prof.errors[prof.detunings_hz.size // 2]
        mask = np.abs(prof.detunings_hz) <= GAUSS27.fwhm_hz
        assert np.abs(prof.errors[mask] - center).max() <= 0.5 * center

    def test_linear_chirp_mean_error_in_band(self):
        prof = inversion_error_profile(LZ_STRONG, GAUSS27, n_samples=41)
        assert 0.001 <= prof.mean_error <= 0.02

    def test_finite_rabi_pulse_is_worse_than_adiabatic(self):
        inst = inversion_error_profile(PulseSpec(rabi_hz=50e3), GAUSS27, n_samples=41)
        adia = inversion_error_profile(SECH_DEFAULT, GAUSS27, n_samples=41)
        assert inst.mean_error > adia.mean_error

    def test_grid_shape(self):
        prof = inversion_error_profile(PulseSpec(), GAUSS27, n_samples=5)
        assert prof.detunings_hz[0] == -2 * GAUSS27.fwhm_hz
        assert prof.detunings_hz[-1] == 2 * GAUSS27.fwhm_hz
        assert prof.detunings_hz.size == prof.errors.size == 5

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            inversion_error_profile(PulseSpec(), GAUSS27, n_samples=2)
