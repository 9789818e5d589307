import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcmem import (DDSequence, DetuningDistribution, InvalidArgumentError, PulseSpec,
                    SequenceStep, SpinEnsemble, apply_sequence, build_sequence,
                    calibrate_systematic_error, collective_coherence, dephasing_envelope,
                    free_evolve, grid_ensemble, precision_requirement,
                    random_phase_population_study, rephasing_fidelity,
                    sample_detunings, sequence_population_error, thermalization_curve,
                    thermalization_monte_carlo, with_transverse_states)
from afcmem import sequences
from afcmem.pulses import jitter_angle
from afcmem.rng import DOMAIN_RANDOM_PHASE, DOMAIN_THERMALIZATION, spawn_generator
from afcmem.sequences import (_flip_monte_carlo, _propagate, _rotate_in_place,
                              sequence_rotation_matrix)
from oracles import reference_rotate

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
        fid = rephasing_fidelity(ens, build_sequence(kind, 0.5e-3))
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


# Inputs whose rounding the kernel must reproduce: signed zeros, subnormals,
# magnitudes whose products overflow, infinities and nan.  assert_array_equal
# counts -0 equal to +0, the one result einsum's loop gives differently.
_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                         np.inf, -np.inf, np.nan])


class TestKernel:
    @pytest.mark.parametrize("per_spin", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize("n", [1, 4099])
    def test_rotation_is_the_explicit_chain_bit_for_bit(self, per_spin, n):
        # each element is (m_i0 v0 + m_i1 v1) + m_i2 v2, rounded after every
        # multiply and add; a fused or reordered sum would move report bytes
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 3, n) if per_spin else (3, 3))
        v = rng.normal(size=(3, n)) * np.exp(rng.uniform(-30.0, 30.0, (3, n)))
        for i in range(3):  # edge values in every row of v and, per spin, of m
            v[i, rng.integers(0, n, 3)] = rng.choice(_EDGE_VALUES, 3)
            if per_spin:
                m[i, :, rng.integers(0, n, 3)] = rng.choice(_EDGE_VALUES, (3, 3))
        if n > _EDGE_VALUES.size ** 2:  # every pair of edge values meets in one product
            v[:, :_EDGE_VALUES.size ** 2] = np.repeat(_EDGE_VALUES, _EDGE_VALUES.size)
            if per_spin:
                m[:, :, :_EDGE_VALUES.size ** 2] = np.tile(_EDGE_VALUES, _EDGE_VALUES.size)
        with np.errstate(all="ignore"):
            expected = np.array([(m[i, 0] * v[0] + m[i, 1] * v[1]) + m[i, 2] * v[2]
                                 for i in range(3)])
            _rotate_in_place(m, v, np.empty((3, n)))
        np.testing.assert_array_equal(v, expected)

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
        states = np.random.default_rng(6).normal(size=(3, 64))
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
        fid = rephasing_fidelity(ens, seq)
        assert fid == pytest.approx(math.exp(-1), abs=0.04)

    def test_one_percent_error_keeps_fidelity(self):
        ens = grid_ensemble(GAUSS27, 4096)
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.01))
        assert rephasing_fidelity(ens, seq) >= 0.95

    def test_phase_robustness(self):
        ens = grid_ensemble(GAUSS27, 2048)
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
        for ens in (grid_ensemble(GAUSS27, n), sample_detunings(GAUSS27, n, seed=n)):
            final = apply_sequence(with_transverse_states(ens), seq, seed=5)
            assert rephasing_fidelity(ens, seq, seed=5) == abs(collective_coherence(final))

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
        for ens in (grid_ensemble(GAUSS27, n), sample_detunings(GAUSS27, n, seed=n)):
            prepared = with_transverse_states(ens, 1.1)
            final = apply_sequence(prepared, seq, seed=5)
            expected = _stepped_states(seq, prepared.states, ens.detunings_hz, seed=5)
            np.testing.assert_allclose(final.states, expected, rtol=0.0, atol=1e-12)


def _stepped_random_phase(seq, n_spins, n_max, tilt, seed):
    """Oracle: step the study's initial state wait by wait and pulse by pulse; the
    k-th pulse of repetition r draws jitter_angle(pulse, seed, r * n_pulses + k)."""
    det = sample_detunings(GAUSS27, n_spins, seed).detunings_hz
    phi = spawn_generator(seed, DOMAIN_RANDOM_PHASE).uniform(0.0, 2.0 * math.pi, n_spins)
    states = np.stack([tilt * np.cos(phi), tilt * np.sin(phi),
                       np.full(n_spins, math.sqrt(1.0 - tilt * tilt))], axis=1)
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


class TestRandomPhase:
    def test_jitter_keys_count_pulses_across_repetitions(self):
        seq = build_sequence("xy4", 0.5e-3, PulseSpec(systematic_error=0.01, jitter_sd=0.05))
        n_spins, n_max, tilt, seed = 64, 4, 0.1, 9
        ens = sample_detunings(GAUSS27, n_spins, seed)
        study = random_phase_population_study([seq], ens.detunings_hz, ens.weights, n_max,
                                              tilt=tilt, seed=seed)
        np.testing.assert_allclose(study.rho_g[0],
                                   _stepped_random_phase(seq, n_spins, n_max, tilt, seed),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["xx", "xy4", "xy8", "kdd"])
    @pytest.mark.parametrize("pulse", [
        PulseSpec(),
        PulseSpec(systematic_error=0.02),
        PulseSpec(systematic_error=-0.01, rabi_hz=80e3),
    ])
    def test_composed_map_matches_stepping(self, kind, pulse):
        # without jitter the study composes each spin's map once and applies it n_max times
        seq = build_sequence(kind, 0.5e-3, pulse)
        n_spins, n_max, tilt, seed = 300, 20, 0.1, 4
        ens = sample_detunings(GAUSS27, n_spins, seed)
        study = random_phase_population_study([seq], ens.detunings_hz, ens.weights, n_max,
                                              tilt=tilt, seed=seed)
        np.testing.assert_allclose(study.rho_g[0],
                                   _stepped_random_phase(seq, n_spins, n_max, tilt, seed),
                                   rtol=0.0, atol=1e-12)


class TestPrecisionRequirement:
    def test_single_spin(self):
        rep = precision_requirement(1, 0.5)
        assert rep.naive_bound == 1.0

    def test_macroscopic_ensemble(self):
        rep = precision_requirement(10 ** 12, 0.002)
        assert rep.naive_bound == 1e-12
        assert rep.ratio == pytest.approx(2e9)

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            precision_requirement(0, 0.1)
