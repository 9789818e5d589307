import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (AdiabaticPulseSpec, DetuningDistribution, IntegrationAccuracyError,
                    IntegratorConfig, InvalidArgumentError, PulseSpec, adiabaticity,
                    apply_rotation, integrate_bloch, inversion_error_profile,
                    landau_zener_error, rotate_states)

UP = np.array([0.0, 0.0, 1.0])
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
        out = apply_rotation(UP, PulseSpec())
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-12)

    def test_ten_percent_angle_error(self):
        out = apply_rotation(UP, PulseSpec(systematic_error=0.1))
        assert out[2] == pytest.approx(-math.cos(0.1 * math.pi), abs=1e-12)
        leakage = (1.0 + out[2]) / 2.0
        assert leakage == pytest.approx(math.sin(0.05 * math.pi) ** 2, abs=1e-12)

    def test_finite_rabi_at_detuning_equal_rabi(self):
        out = apply_rotation(UP, PulseSpec(rabi_hz=50e3), detuning_hz=50e3)
        p_inv = (1.0 - out[2]) / 2.0
        assert p_inv == pytest.approx(0.5 * math.sin(math.pi * math.sqrt(2) / 2) ** 2, abs=1e-12)
        assert p_inv == pytest.approx(0.316, abs=1e-3)

    @pytest.mark.parametrize("detuning", [0.0, 10e3, 37e3, 80e3])
    def test_finite_rabi_matches_generalized_rabi_oracle(self, detuning):
        out = apply_rotation(UP, PulseSpec(rabi_hz=50e3), detuning_hz=detuning)
        err = (1.0 + out[2]) / 2.0
        assert err == pytest.approx(generalized_rabi_error(50e3, detuning, math.pi), abs=1e-12)

    def test_double_pi_is_identity(self):
        state = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        pulse = PulseSpec(axis_phase=0.7)
        out = apply_rotation(apply_rotation(state, pulse), pulse)
        np.testing.assert_allclose(out, state, atol=1e-9)

    def test_jitter_deterministic_per_index(self):
        pulse = PulseSpec(jitter_sd=0.05)
        a = apply_rotation(UP, pulse, seed=3, pulse_index=0)
        b = apply_rotation(UP, pulse, seed=3, pulse_index=0)
        c = apply_rotation(UP, pulse, seed=3, pulse_index=1)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("rabi", [None, 40e3])
    def test_matches_reference_rodrigues_bit_for_bit(self, rabi):
        # reference: the Rodrigues sum in one expression with np.cross; rotate_states
        # sums the same terms in place and must round exactly alike
        rng = np.random.default_rng(5)
        det = rng.normal(0.0, 27e3, 500)
        pulse = PulseSpec(axis_phase=0.9, systematic_error=0.03, rabi_hz=rabi)
        theta = pulse.nominal_angle * (1.0 + pulse.systematic_error) + 0.01
        for states in (rng.normal(size=(500, 3)), np.broadcast_to(UP, (500, 3))):
            if rabi is None:
                axis = np.array([math.cos(0.9), math.sin(0.9), 0.0])
                c, s = math.cos(theta), math.sin(theta)
                cross = np.cross(np.broadcast_to(axis, states.shape), states)
                expected = states * c + cross * s + np.outer(states @ axis, axis) * (1.0 - c)
            else:
                g = np.hypot(rabi, det)
                axis = np.stack([rabi * math.cos(0.9) / g, rabi * math.sin(0.9) / g, det / g],
                                axis=1)
                c, s = np.cos(theta * g / rabi), np.sin(theta * g / rabi)
                ndotv = np.einsum("ij,ij->i", axis, states)
                expected = (states * c[:, None] + np.cross(axis, states) * s[:, None]
                            + axis * (ndotv * (1.0 - c))[:, None])
            np.testing.assert_array_equal(rotate_states(states, pulse, det, jitter=0.01),
                                          expected)

    @settings(max_examples=60, deadline=None)
    @given(phase=st.floats(0, 2 * math.pi), eps=st.floats(-0.2, 0.2),
           rabi=st.one_of(st.none(), st.floats(1e3, 1e5)),
           detuning=st.floats(-5e4, 5e4),
           x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_rotation_preserves_norm(self, phase, eps, rabi, detuning, x, y):
        z = math.sqrt(max(0.0, 1.0 - min(1.0, x * x + y * y)))
        state = np.array([x, y, z]) / max(1.0, np.linalg.norm([x, y, z]))
        pulse = PulseSpec(axis_phase=phase, systematic_error=eps, rabi_hz=rabi)
        out = apply_rotation(state, pulse, detuning_hz=detuning)
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
        assert np.isfinite(apply_rotation(UP, PulseSpec(**edge))).all()


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
        assert len(prof.as_rows()) == 5

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgumentError):
            inversion_error_profile(PulseSpec(), GAUSS27, n_samples=2)
