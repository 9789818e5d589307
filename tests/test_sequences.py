import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (DDSequence, DetuningDistribution, InvalidArgumentError, PulseSpec,
                    SequenceStep, SpinEnsemble, apply_sequence, build_sequence,
                    calibrate_systematic_error, dephasing_envelope, free_evolve, grid_ensemble,
                    random_phase_population_study, rephasing_fidelity, sample_detunings,
                    sequence_population_error, thermalization_curve, thermalization_monte_carlo)
from afcmem import sequences
from afcmem.config import load_config
from afcmem.ensemble import draw_detunings
from afcmem.pulses import cayley_klein, jitter_angle
from afcmem.rng import DOMAIN_RANDOM_PHASE, DOMAIN_THERMALIZATION, spawn_generator
from afcmem.runner import _calibrated_pulse, run_experiment
from afcmem.sequences import (SEQUENCE_KINDS, _flip_monte_carlo, _propagate,
                              sequence_rotation_matrix)
from oracles import (collective_coherence, grid_spin_ensemble, longdouble_pole_track,
                     longdouble_population_error, longdouble_random_phase, reference_rotate,
                     with_transverse_states)

GAUSS27 = DetuningDistribution("gaussian", 27e3)
NARROW = DetuningDistribution("gaussian", 1.0)  # effectively a single line

X, Y = 0.0, math.pi / 2


def _z_rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _axis_rotation(axis, angle):
    """Rodrigues' formula: right-handed rotation by angle about a unit axis."""
    nx, ny, nz = axis
    k = np.array([[0.0, -nz, ny], [nz, 0.0, -nx], [-ny, nx, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _oracle_sequence_matrix(seq, detuning_hz):
    """Explicit product of the closed-form wait and pulse rotations."""
    m = np.eye(3)
    for step in seq.steps:
        m = _z_rotation(2.0 * math.pi * detuning_hz * step.wait_s) @ m
        if step.pulse is None:
            continue
        pulse = step.pulse
        angle = pulse.nominal_angle * (1.0 + pulse.systematic_error)
        cphi, sphi = math.cos(pulse.axis_phase), math.sin(pulse.axis_phase)
        if pulse.rabi_hz is None:
            m = _axis_rotation((cphi, sphi, 0.0), angle) @ m
        else:
            g = math.hypot(pulse.rabi_hz, detuning_hz)
            axis = (pulse.rabi_hz * cphi / g, pulse.rabi_hz * sphi / g, detuning_hz / g)
            m = _axis_rotation(axis, angle * g / pulse.rabi_hz) @ m
    return m


class TestBuilders:
    def test_xy4_layout(self):
        t_s = 0.5e-3
        seq = build_sequence("xy4", t_s)
        waits = [s.wait_s for s in seq.steps]
        assert waits == [t_s / 8, t_s / 4, t_s / 4, t_s / 4, t_s / 8]
        assert [p.axis_phase for p in seq.pulses] == [X, Y, X, Y]
        assert seq.n_pulses == 4

    def test_xx_layout(self):
        seq = build_sequence("xx", 1e-3)
        assert [s.wait_s for s in seq.steps] == [0.25e-3, 0.5e-3, 0.25e-3]
        assert [p.axis_phase for p in seq.pulses] == [X, X]

    def test_xy8_layout(self):
        seq = build_sequence("xy8", 1e-3)
        assert seq.n_pulses == 8
        assert [p.axis_phase for p in seq.pulses] == [X, Y, X, Y, Y, X, Y, X]

    def test_kdd_is_twenty_pulses(self):
        seq = build_sequence("kdd", 1e-3)
        assert seq.n_pulses == 20
        assert seq.n_pulses % 2 == 0

    @settings(max_examples=40, deadline=None)
    @given(t_s=st.floats(1e-6, 1e-2),
           kind=st.sampled_from(["xx", "xy4", "xy8", "kdd"]))
    def test_waits_close_to_duration(self, t_s, kind):
        seq = build_sequence(kind, t_s)
        total = math.fsum(s.wait_s for s in seq.steps)
        assert abs(total - t_s) <= 1e-12 * t_s

    def test_invalid_duration(self):
        with pytest.raises(InvalidArgumentError):
            build_sequence("xy4", 0.0)
        with pytest.raises(InvalidArgumentError):
            build_sequence("zz", 1e-3)

    def test_even_count_enforced_for_builtins(self):
        with pytest.raises(InvalidArgumentError):
            DDSequence((SequenceStep(1e-3, PulseSpec()),), "xy4", 1e-3)


class TestApplySequence:
    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    def test_pole_is_fixed_point(self, kind):
        ens = sample_detunings(GAUSS27, 500, seed=2)
        out = apply_sequence(ens, build_sequence(kind, 0.4e-3))
        np.testing.assert_allclose(out.states[:, 2], 1.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(out.states[:, :2]), 0.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    def test_perfect_echo(self, kind):
        ens = sample_detunings(GAUSS27, 2000, seed=3)
        fid = rephasing_fidelity(build_sequence(kind, 0.5e-3), ens.detunings_hz, ens.weights)
        assert abs(fid - 1.0) < 1e-9

    def test_free_decay_matches_envelope(self):
        t = 40e-6
        seq = DDSequence((SequenceStep(t),), "custom", t)
        n = 20000
        ens = with_transverse_states(sample_detunings(GAUSS27, n, seed=4))
        amp = abs(collective_coherence(apply_sequence(ens, seq)))
        assert abs(amp - dephasing_envelope(GAUSS27, t)) < 5.0 / math.sqrt(n) + 1e-3

    def test_deterministic_with_jitter(self):
        ens = sample_detunings(GAUSS27, 100, seed=5)
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(jitter_sd=0.02))
        a = apply_sequence(ens, seq, seed=11)
        b = apply_sequence(ens, seq, seed=11)
        np.testing.assert_array_equal(a.states, b.states)
        c = apply_sequence(ens, seq, seed=12)
        assert not np.array_equal(a.states, c.states)


def _stepped_states(seq, states, det, seed=None):
    """Oracle: free_evolve each wait and reference_rotate each pulse, one step
    at a time; the k-th pulse draws its jitter keyed by (seed, k)."""
    ens = SpinEnsemble(det, states, np.full(det.size, 1.0 / det.size))
    pulses = 0
    for step in seq.steps:
        ens = free_evolve(ens, step.wait_s)
        if step.pulse is not None:
            jitter = jitter_angle(step.pulse, seed, pulses)
            ens = replace(ens, states=reference_rotate(ens.states, step.pulse, det, jitter))
            pulses += 1
    return ens.states


# A leading zero wait, a repeated wait length, and a finite-Rabi pulse among
# instantaneous ones.
_CUSTOM = DDSequence((SequenceStep(0.0, PulseSpec(systematic_error=0.02)),
                      SequenceStep(31e-6, PulseSpec(axis_phase=Y, systematic_error=-0.01)),
                      SequenceStep(31e-6, PulseSpec(axis_phase=0.3, rabi_hz=60e3)),
                      SequenceStep(17e-6, PulseSpec(axis_phase=Y, systematic_error=0.02)),
                      SequenceStep(31e-6)), "custom", 110e-6)


class TestKernel:
    @pytest.mark.parametrize("per_spin", [False, True], ids=["resonant", "rabi"])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, 2.3])
    def test_pulse_is_the_su2_product(self, per_spin, phase):
        # the pulse kernel against the explicit 2x2 product U (a, b), with U
        # built from cayley_klein's (a, s) and the phase by their definition
        rng = np.random.default_rng(11)
        n = 257
        det = rng.normal(0.0, 40e3, n)
        pulse = PulseSpec(axis_phase=phase, systematic_error=0.03,
                          rabi_hz=60e3 if per_spin else None)
        a_p, s_p = cayley_klein(pulse, det)
        a_p, s_p = np.broadcast_to(a_p, n), np.broadcast_to(s_p, n)
        b_p = -1j * s_p * np.exp(1j * phase)
        u = np.array([[a_p, -np.conj(b_p)], [b_p, np.conj(a_p)]])  # (2, 2, n)
        ab = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        ab /= np.sqrt((np.abs(ab) ** 2).sum(axis=0))
        expected = np.einsum("ijn,jn->in", u, ab)
        seq = DDSequence((SequenceStep(0.0, pulse), SequenceStep(0.0)), "custom", 0.0)
        np.testing.assert_allclose(_propagate(ab, det, seq, None), expected, rtol=0.0, atol=1e-15)

    def test_finite_rabi_pulse_is_built_once_per_call(self, monkeypatch):
        # xy8's eight pulses are one rotation at two axis phases: the phase
        # only turns b, so the per-spin parameters are built once
        calls = []

        def counting(*args):
            calls.append(args[0])
            return cayley_klein(*args)

        monkeypatch.setattr(sequences, "cayley_klein", counting)
        det, w = grid_ensemble(GAUSS27, 10_000)
        seq = build_sequence("xy8", 0.5e-3, PulseSpec(systematic_error=0.01, rabi_hz=2e5))
        rephasing_fidelity(seq, det, w)
        assert len(calls) == 1

    def test_custom_sequence_matches_stepping(self):
        ens = with_transverse_states(sample_detunings(GAUSS27, 257, seed=13), 0.4)
        det = ens.detunings_hz
        out = apply_sequence(ens, _CUSTOM)
        np.testing.assert_allclose(out.states, _stepped_states(_CUSTOM, ens.states, det),
                                   rtol=0.0, atol=1e-12)
        maps = sequence_rotation_matrix(_CUSTOM, det)
        for j in range(3):
            basis = np.zeros((det.size, 3))
            basis[:, j] = 1.0
            np.testing.assert_allclose(maps[:, :, j], _stepped_states(_CUSTOM, basis, det),
                                       rtol=0.0, atol=1e-12)

    def test_inputs_are_never_written(self):
        det = np.random.default_rng(5).normal(0.0, 27e3, 64)
        det_before = det.copy()
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.02, rabi_hz=70e3))
        sequence_population_error(seq, det)
        sequence_rotation_matrix(seq, det)
        np.testing.assert_array_equal(det, det_before)
        ens = with_transverse_states(SpinEnsemble(det, np.zeros((64, 3)), np.full(64, 1 / 64)))
        states_before = ens.states.copy()
        apply_sequence(ens, seq)
        np.testing.assert_array_equal(ens.states, states_before)
        # the random-phase study's jittered path hands its own writable array to the kernel
        jittered = build_sequence("xy4", 0.5e-3, PulseSpec(jitter_sd=0.05))
        states = np.random.default_rng(6).normal(size=(2, 64)) + 0.5j
        states_before = states.copy()
        out = _propagate(states, det, jittered, seed=3, first_pulse=8)
        np.testing.assert_array_equal(states, states_before)
        np.testing.assert_array_equal(det, det_before)
        assert not np.shares_memory(out, states)


class TestPopulationError:
    def test_ideal_is_zero(self):
        for kind in ("xx", "xy4", "xy8", "kdd"):
            assert sequence_population_error(build_sequence(kind, 1e-3)) == pytest.approx(0.0, abs=1e-12)

    def test_xx_calibration_hits_target(self):
        eps = calibrate_systematic_error(0.036, kind="xx")
        # closed form at line center: two X rotations compose to 2*pi*(1+eps)
        assert eps == pytest.approx(math.asin(math.sqrt(0.036)) / math.pi, abs=1e-9)
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=eps))
        assert sequence_population_error(seq) == pytest.approx(0.036, abs=1e-9)

    def test_xy4_suppression_under_calibrated_error(self):
        eps = calibrate_systematic_error(0.036, kind="xx")
        xy4 = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=eps))
        sequence_population_error(xy4)  # warm-up before timing
        timings = []
        for _ in range(5):  # the fastest of five: a busy host delays single calls
            t0 = time.perf_counter()
            err = sequence_population_error(xy4)
            timings.append(time.perf_counter() - t0)
        assert err <= 0.0036
        assert min(timings) < 1e-3

    @pytest.mark.parametrize("eps", np.linspace(0.002, 0.05, 9).tolist())
    def test_robustness_ordering(self, eps):
        pulse = PulseSpec(systematic_error=eps)
        xx = sequence_population_error(build_sequence("xx", 0.5e-3, pulse))
        xy4 = sequence_population_error(build_sequence("xy4", 0.5e-3, pulse))
        assert xy4 <= xx / 10.0

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(),
        PulseSpec(systematic_error=0.03),
        PulseSpec(systematic_error=-0.02, rabi_hz=80e3),
        PulseSpec(jitter_sd=0.1, systematic_error=0.015),
        PulseSpec(systematic_error=0.02, rabi_hz=50e3),
    ])
    def test_rotation_matrix_matches_explicit_product(self, kind, pulse):
        seq = build_sequence(kind, 0.37e-3, pulse)
        dets = (0.0, 1.3e3, -9.1e3, 27e3)
        for det in dets:
            m = sequence_rotation_matrix(seq, det)
            np.testing.assert_allclose(m, _oracle_sequence_matrix(seq, det),
                                       rtol=0.0, atol=1e-12)
            err = sequence_population_error(seq, det)
            assert err == pytest.approx(0.5 * (1.0 - m[2, 2]), abs=1e-12)
        stack = sequence_rotation_matrix(seq, np.array(dets))
        assert stack.shape == (len(dets), 3, 3)
        np.testing.assert_allclose(
            stack, np.stack([sequence_rotation_matrix(seq, d) for d in dets]),
            rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            stack, np.stack([_oracle_sequence_matrix(seq, d) for d in dets]),
            rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(systematic_error=0.03),
        PulseSpec(systematic_error=0.02, rabi_hz=50e3),
    ], ids=["resonant", "rabi"])
    def test_line_centre_error_is_independent_of_storage_time(self, kind, pulse):
        # every wait is the identity at zero detuning: the premise of the
        # closed-form calibration, which ignores t_s
        errs = {sequence_population_error(build_sequence(kind, t_s, pulse))
                for t_s in (1e-9, 3.7e-4, 5e-4, 1.0, 1e6)}
        assert len(errs) == 1

    @pytest.mark.parametrize("target", [0.0, 1e-12, 1e-6, 1e-3, 0.036, 0.3, 0.5])
    def test_calibration_reproduces_target_through_xx_composition(self, target):
        eps = calibrate_systematic_error(target)
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=eps))
        assert abs(sequence_population_error(seq) - target) <= 2.3e-16  # two ulps of 1

    def test_calibration_of_negative_zero_is_positive_zero(self):
        eps = calibrate_systematic_error(-0.0)
        assert eps == 0.0 and math.copysign(1.0, eps) == 1.0

    @pytest.mark.parametrize("target,kind,t_s,match", [
        (0.1, "xy4", 0.5e-3, "kind must be"),  # only the xx error is fitted
        (0.036, "xx", 0.0, "t_s must be"),
        (0.036, ["xx"], 0.5e-3, "kind must be"),
        (0.6, "xx", 0.5e-3, "target_error must be"),
    ], ids=["unreachable", "t_s", "unhashable_kind", "target_range"])
    def test_unreachable_target_raises_on_every_call(self, target, kind, t_s, match):
        for _ in range(3):
            with pytest.raises(InvalidArgumentError, match=match):
                calibrate_systematic_error(target, kind, t_s)

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8"])
    def test_small_errors_match_long_double(self, kind):
        # |b|^2 keeps its digits where (1 - z)/2 has none left: at a 1e-6
        # angle error xx moves about 1e-11 of the population and xy4 and xy8
        # about 1e-34, far below the 1.1e-16 spacing of z near 1
        seq = build_sequence(kind, 0.5e-3, PulseSpec(systematic_error=1e-6))
        det = np.array([0.0, 1.3e3, -9.1e3, 27e3])
        expected = longdouble_population_error(seq, det)
        rel = np.abs(sequence_population_error(seq, det) - expected) / expected
        assert (rel <= 1e-3).all(), rel.astype(float)

    def test_error_model_override(self):
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=0.02))
        err = sequence_population_error(seq)
        assert err == pytest.approx(math.sin(math.pi * 0.02) ** 2, abs=1e-12)


class TestThermalization:
    def test_closed_form_examples(self):
        curve = thermalization_curve(0.036, 50)
        assert curve.rho_g[50] == pytest.approx(0.488, abs=5e-4)
        assert thermalization_curve(0.002, 10).rho_g[10] == pytest.approx(0.0196, abs=5e-5)
        assert thermalization_curve(0.25, 0).rho_g[0] == 0.0

    def test_monotone_and_bounded(self):
        rho = thermalization_curve(0.01, 400).rho_g
        assert np.all(np.diff(rho) >= 0)
        assert rho[-1] <= 0.5

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            thermalization_curve(0.6, 10)

    def test_monte_carlo_agrees_with_closed_form(self):
        eps = calibrate_systematic_error(0.036, kind="xx")
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=eps))
        curve = thermalization_monte_carlo(seq, NARROW, n_spins=10_000, n_max=50, seed=6)
        closed = thermalization_curve(0.036, 50).rho_g
        for k in (10, 30, 50):
            assert abs(curve.rho_g_mc[k] - closed[k]) < 3.0 * curve.stderr[k]

    def test_monte_carlo_draws_detunings_without_an_ensemble(self, monkeypatch):
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=0.03))
        det = sample_detunings(GAUSS27, 3000, seed=5).detunings_hz
        eps = np.clip(sequence_population_error(seq, det), 0.0, 1.0)
        ref = _flip_monte_carlo(eps, 3000, 20, spawn_generator(5, DOMAIN_THERMALIZATION))

        def no_ensemble(*args, **kwargs):
            raise AssertionError("sample_detunings called")

        monkeypatch.setattr(sequences, "sample_detunings", no_ensemble)
        curve = thermalization_monte_carlo(seq, GAUSS27, n_spins=3000, n_max=20, seed=5)
        for got, want in ((curve.rho_g, ref.rho_g), (curve.rho_g_mc, ref.rho_g_mc),
                          (curve.stderr, ref.stderr)):
            np.testing.assert_array_equal(got, want)

    def test_monte_carlo_matches_per_spin_oracle_on_broad_line(self):
        # oracle: average the exact single-spin recursion over the sampled line
        seq = build_sequence("xx", 0.5e-3, PulseSpec(systematic_error=0.03))
        ens = sample_detunings(GAUSS27, 10_000, seed=7)
        eps = np.array([sequence_population_error(seq, d) for d in ens.detunings_hz])
        np.testing.assert_allclose(sequence_population_error(seq, ens.detunings_hz), eps,
                                   rtol=0.0, atol=1e-15)
        curve = thermalization_monte_carlo(seq, GAUSS27, n_spins=10_000, n_max=40, seed=7)
        for k in (10, 25, 40):
            exact = float((0.5 * (1.0 - (1.0 - 2.0 * eps) ** k)).mean())
            assert abs(curve.rho_g_mc[k] - exact) < 3.0 * curve.stderr[k]


class TestRephasing:
    def test_no_pulse_decay_reaches_1_over_e(self):
        from afcmem import coherence_1e_time
        t = coherence_1e_time(GAUSS27)
        seq = DDSequence((SequenceStep(t),), "custom", t)
        ens = sample_detunings(GAUSS27, 20_000, seed=8)
        fid = rephasing_fidelity(seq, ens.detunings_hz, ens.weights)
        assert fid == pytest.approx(math.exp(-1), abs=0.04)

    def test_one_percent_error_keeps_fidelity(self):
        det, w = grid_ensemble(GAUSS27, 4096)
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.01))
        assert rephasing_fidelity(seq, det, w) >= 0.95

    def test_phase_robustness(self):
        ens = grid_spin_ensemble(GAUSS27, 2048)
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.01))
        vals = [abs(collective_coherence(apply_sequence(with_transverse_states(ens, p), seq)))
                for p in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
        assert (max(vals) - min(vals)) / np.mean(vals) < 0.02

    @pytest.mark.parametrize("n", [1, 7, 4096])
    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(),
        PulseSpec(systematic_error=0.02, jitter_sd=0.03),
        PulseSpec(systematic_error=-0.01, rabi_hz=80e3),
    ])
    def test_matches_ensemble_composition_bit_for_bit(self, n, kind, pulse):
        # the composition rephasing_fidelity skips: prepare, propagate, reduce
        seq = build_sequence(kind, 0.5e-3, pulse)
        for ens in (grid_spin_ensemble(GAUSS27, n), sample_detunings(GAUSS27, n, seed=n)):
            final = apply_sequence(with_transverse_states(ens), seq, seed=5)
            assert (rephasing_fidelity(seq, ens.detunings_hz, ens.weights, seed=5)
                    == abs(collective_coherence(final)))

    @pytest.mark.parametrize("n", [1, 7, 4096])
    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(),
        PulseSpec(systematic_error=0.02, jitter_sd=0.03),
        PulseSpec(systematic_error=-0.01, rabi_hz=80e3),
    ])
    def test_off_axis_phase_matches_stepping(self, n, kind, pulse):
        # a coherence stored off the x axis goes through with_transverse_states
        # and apply_sequence; the kernel must agree with one step at a time
        seq = build_sequence(kind, 0.5e-3, pulse)
        for ens in (grid_spin_ensemble(GAUSS27, n), sample_detunings(GAUSS27, n, seed=n)):
            prepared = with_transverse_states(ens, 1.1)
            final = apply_sequence(prepared, seq, seed=5)
            expected = _stepped_states(seq, prepared.states, ens.detunings_hz, seed=5)
            np.testing.assert_allclose(final.states, expected, rtol=0.0, atol=1e-12)


def _random_phase_start(n_spins, tilt, seed):
    """The study's (n, 3) start state, drawn as it draws it."""
    phi = spawn_generator(seed, DOMAIN_RANDOM_PHASE).uniform(0.0, 2.0 * math.pi, n_spins)
    return np.stack([tilt * np.cos(phi), tilt * np.sin(phi),
                     np.full(n_spins, math.sqrt(1.0 - tilt * tilt))], axis=1)


def _stepped_random_phase(seq, n_spins, n_max, tilt, seed):
    """Oracle: step the study's initial state wait by wait and pulse by pulse; the
    k-th pulse of repetition r draws jitter_angle(pulse, seed, r * n_pulses + k)."""
    det = sample_detunings(GAUSS27, n_spins, seed).detunings_hz
    states = _random_phase_start(n_spins, tilt, seed)
    ens = SpinEnsemble(det, states, np.full(n_spins, 1.0 / n_spins))
    expected = [float(np.mean(0.5 * (1.0 - ens.states[:, 2])))]
    for r in range(n_max):
        k = 0
        for step in seq.steps:
            ens = free_evolve(ens, step.wait_s)
            if step.pulse is not None:
                jit = jitter_angle(step.pulse, seed, r * seq.n_pulses + k)
                ens = replace(ens, states=reference_rotate(ens.states, step.pulse, det, jit))
                k += 1
        expected.append(float(np.mean(0.5 * (1.0 - ens.states[:, 2]))))
    return expected


# Rotation angles that reach both ends of [0, pi], where a closed form for the
# powers of a rotation loses digits if it reads theta or the axis the wrong way.
_THETAS = (0.0, 1e-12, 1e-7, 1e-3, 1.0, math.pi / 2, 3.0, math.pi - 1e-7, math.pi)


def _synthetic_rotations(rng, axes_per_angle):
    """Rotations by each angle in _THETAS about axes_per_angle random axes, as
    a (3, 3, n) stack of Rodrigues matrices and as the (2, n) first columns
    (a, b) of their SU(2) maps, built from the same angle and axis, and one
    random unit vector per rotation.  The angle pi is built with sin = 0
    exactly, so its matrix is symmetric and its antisymmetric part is exactly
    0, as at theta = 0; its (a, b) has cos(theta/2) = 0 exactly."""
    mats, columns, vecs = [], [], []
    for theta in _THETAS:
        c, s = (-1.0, 0.0) if theta == math.pi else (math.cos(theta), math.sin(theta))
        ch, sh = (0.0, 1.0) if theta == math.pi else (math.cos(theta / 2), math.sin(theta / 2))
        for _ in range(axes_per_angle):
            u, v = rng.normal(size=(2, 3))
            u /= np.linalg.norm(u)
            cross = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
            mats.append(c * np.eye(3) + s * cross + (1.0 - c) * np.outer(u, u))
            columns.append([complex(ch, -sh * u[2]), complex(sh * u[1], -sh * u[0])])
            vecs.append(v / np.linalg.norm(v))
    return np.stack(mats, axis=2), np.array(columns).T, np.stack(vecs, axis=1)


class TestRandomPhase:
    def test_jitter_keys_count_pulses_across_repetitions(self):
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.01, jitter_sd=0.05))
        n_spins, n_max, tilt, seed = 64, 4, 0.1, 9
        ens = sample_detunings(GAUSS27, n_spins, seed)
        rho_g = random_phase_population_study([seq], ens.detunings_hz, ens.weights, n_max,
                                              tilt=tilt, seed=seed)
        np.testing.assert_allclose(rho_g[0],
                                   _stepped_random_phase(seq, n_spins, n_max, tilt, seed),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(),
        PulseSpec(systematic_error=0.02),
        PulseSpec(systematic_error=-0.01, rabi_hz=80e3),
    ])
    def test_composed_map_matches_stepping(self, kind, pulse):
        # without jitter the study composes each spin's map once and takes its
        # n_max powers in closed form
        seq = build_sequence(kind, 0.5e-3, pulse)
        n_spins, n_max, tilt, seed = 300, 20, 0.1, 4
        ens = sample_detunings(GAUSS27, n_spins, seed)
        rho_g = random_phase_population_study([seq], ens.detunings_hz, ens.weights, n_max,
                                              tilt=tilt, seed=seed)
        np.testing.assert_allclose(rho_g[0],
                                   _stepped_random_phase(seq, n_spins, n_max, tilt, seed),
                                   rtol=0.0, atol=1e-12)

    def test_closed_form_powers_of_synthetic_rotations(self):
        # each spin alone, so that no error hides in a mean over spins
        axes_per_angle = 4
        maps, columns, starts = _synthetic_rotations(np.random.default_rng(17), axes_per_angle)
        n_max = 4096
        expected = longdouble_pole_track(maps, starts, n_max)
        for j in range(starts.shape[1]):
            v = starts[:, j:j + 1]
            rho0 = 0.5 * (1.0 - v[2, 0])
            rho = sequences._repeated_rotation(columns[:, j:j + 1].copy(), v[0] + 1j * v[1],
                                               v[2], np.ones(1), rho0, n_max,
                                               np.empty((2, 1), dtype=complex))
            z = np.concatenate([[v[2, 0]], 1.0 - 2.0 * rho])
            np.testing.assert_allclose(
                z, expected[:, j].astype(float), rtol=0.0, atol=1e-12,
                err_msg=f"theta = {_THETAS[j // axes_per_angle]!r}")

    def test_repetitions_match_long_double_at_preset_scale(self):
        cfg, _ = load_config("random_phase", {"ensemble": {"n_spins": 2000}})
        n_spins, tilt, seed, n_max = 2000, cfg.random_phase.tilt, cfg.seed, 50
        pulse = _calibrated_pulse(cfg)
        det = draw_detunings(cfg.ensemble, n_spins, seed)
        w = np.full(n_spins, 1.0 / n_spins)
        seqs = [build_sequence(kind, cfg.sequence.t_s_s, pulse) for kind in SEQUENCE_KINDS]
        rho = random_phase_population_study(seqs, det, w, n_max, tilt=tilt, seed=seed)
        start = _random_phase_start(n_spins, tilt, seed).T
        for seq, row in zip(seqs, rho):
            expected = longdouble_random_phase(seq, det, w, start, n_max)
            np.testing.assert_allclose(row, expected, rtol=0.0, atol=1e-14, err_msg=seq.kind)

    def test_peak_memory_per_spin(self, tmp_path):
        # one kind's (a, b) maps are composed at a time, and freed before their
        # closed-form powers use (n,) arrays, so the peak is one composition's:
        # 138 bytes a spin at 2^16 spins
        n_spins = 2 ** 16
        warm, fixtures = load_config("random_phase", {"ensemble": {"n_spins": 64}})
        cfg, _ = load_config("random_phase", {"ensemble": {"n_spins": n_spins},
                                              "random_phase": {"n_max": 8}})
        run_experiment(warm, fixtures, tmp_path)
        tracemalloc.start()
        try:
            run_experiment(cfg, fixtures, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_spins <= 170.0, f"{peak / n_spins:.1f} bytes a spin"
