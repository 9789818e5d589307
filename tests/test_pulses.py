import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (AdiabaticPulseSpec, DetuningDistribution, IntegrationAccuracyError,
                    IntegratorConfig, InvalidArgumentError, PulseSpec, inversion_error_profile,
                    rotate_states)
from afcmem.pulses import jitter_angle, rotation_matrix
from afcmem.sequences import calibrate_systematic_error
from oracles import (adiabaticity, integrate_bloch, landau_zener_error, longdouble_rotation,
                     reference_rotate)

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
        pulse = PulseSpec()
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
    def test_resonant_matrix_matches_long_double(self, error, jitter):
        # the resonant 3x3 route of rotate_states against the Rodrigues matrix
        # in long double: within 4.83e-16, as a Rodrigues builder in float64 is
        pulse = PulseSpec(systematic_error=error)
        expected = longdouble_rotation(pulse, 0.0, 0.0, jitter)[:, :, 0]
        got = rotation_matrix(pulse, jitter=jitter).astype(np.longdouble)
        assert np.abs(got - expected).max() <= 5e-16

    @pytest.mark.parametrize("rabi", [5e3, 40e3, 200e3])
    def test_finite_rabi_stack_matches_long_double(self, rabi):
        # the float64 angle theta g / rabi is rounded to an ulp of itself, so
        # the bound is one ulp of the largest angle plus two ulps of 1 for the
        # matrix's own rounding (1.1e-14 at 5 kHz, where it reaches 49 rad)
        det = np.random.default_rng(5).normal(0.0, 27e3, 500)
        pulse = PulseSpec(systematic_error=0.03, rabi_hz=rabi)
        stack = rotation_matrix(pulse, det, 0.01)
        assert stack.shape == (500, 3, 3)
        expected = np.moveaxis(longdouble_rotation(pulse, 0.0, det, 0.01), 2, 0)
        largest = (math.pi * 1.03 + 0.01) * np.hypot(rabi, det).max() / rabi
        bound = np.finfo(float).eps * (largest + 2.0)
        assert np.abs(stack.astype(np.longdouble) - expected).max() <= bound
        one = rotation_matrix(pulse, det[7], 0.01)
        assert one.shape == (3, 3)
        np.testing.assert_array_equal(one, stack[7])
        assert rotation_matrix(PulseSpec(), det).shape == (3, 3)  # one matrix without rabi_hz

    def test_detunings_are_at_most_one_dimensional(self):
        pulse = PulseSpec(rabi_hz=40e3)
        for rotate in (lambda det: rotation_matrix(pulse, det),
                       lambda det: rotate_states(np.zeros((4, 3)), pulse, det)):
            with pytest.raises(InvalidArgumentError, match=r"got shape \(2, 2\)"):
                rotate(np.zeros((2, 2)))

    @pytest.mark.parametrize("rabi", [None, 40e3])
    def test_rotate_states_matches_reference(self, rabi):
        rng = np.random.default_rng(5)
        det = rng.normal(0.0, 27e3, 500)
        pulse = PulseSpec(systematic_error=0.03, rabi_hz=rabi)
        for states in (rng.normal(size=(500, 3)), np.broadcast_to(UP, (500, 3))):
            expected = reference_rotate(states, pulse, 0.0, det, 0.01)
            bound = 1e-15 * np.maximum(1.0, np.linalg.norm(states, axis=1))[:, None]
            assert (np.abs(rotate_states(states, pulse, det, jitter=0.01) - expected)
                    <= bound).all()

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(-0.2, 0.2), rabi=st.one_of(st.none(), st.floats(1e3, 1e5)),
           detuning=st.floats(-5e4, 5e4),
           x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_rotation_preserves_norm(self, eps, rabi, detuning, x, y):
        z = math.sqrt(max(0.0, 1.0 - min(1.0, x * x + y * y)))
        state = np.array([x, y, z]) / max(1.0, np.linalg.norm([x, y, z]))
        pulse = PulseSpec(systematic_error=eps, rabi_hz=rabi)
        out = rotate_states(state[None], pulse, np.array([detuning]))[0]
        assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-12

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgumentError):
            PulseSpec(jitter_sd=-0.1)
        with pytest.raises(InvalidArgumentError):
            PulseSpec(rabi_hz=0.0)

    @pytest.mark.parametrize("kwargs", [{"systematic_error": 1e308},
                                        {"systematic_error": -1e308},
                                        {"systematic_error": 1.01},
                                        {"jitter_sd": 1e308}, {"jitter_sd": 1.01}])
    def test_angle_errors_are_bounded(self, kwargs):
        # beyond 100% of pi, and angles would overflow to inf
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

    @pytest.mark.parametrize("n_samples", [2, 3.5, True])
    def test_too_few_samples(self, n_samples):
        # a fraction once reached np.linspace as its count
        with pytest.raises(InvalidArgumentError, match="n_samples must be an integer >= 3"):
            inversion_error_profile(PulseSpec(), GAUSS27, n_samples=n_samples)
