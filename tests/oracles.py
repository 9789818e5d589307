"""Reference implementations the tests check the package against, and the
helpers only tests need.

Each reference computes what a package route computes by another formula,
so a test that compares the two does not compare the package with itself.
The helpers (the echo peak search, transverse preparation, the collective
coherence of an ensemble, the single-spin RK4 wrapper and the Landau-Zener
estimate) serve no pipeline, so they live here rather than in the package.
"""

import math
from dataclasses import asdict, replace

import numpy as np

from afcmem.afc import CombSpectrum, echo_trace
from afcmem.ensemble import SpinEnsemble, grid_ensemble
from afcmem.errors import InvalidArgumentError
from afcmem.pulses import AdiabaticPulseSpec, IntegratorConfig, integrate_bloch_many
from afcmem.rng import DOMAIN_DETECTION, spawn_generator


def per_photon_histograms(detection, eta, p_n, seed=0, stream=0):
    """(counts_with, counts_without, totals) of one run drawn photon by
    photon, the sampler simulate_run used before its multinomial form.

    The three Poisson totals (signal, noise with input, noise without) come
    first from the run's (seed, DOMAIN_DETECTION, stream) generator, as in
    simulate_run.  Then each signal photon gets a normal time at the gate
    center with sd a tenth of the gate, clipped to the gate and binned with
    np.histogram, and each noise photon a uniform bin.
    """
    rng = spawn_generator(seed, DOMAIN_DETECTION, stream)
    trials, mu, bins = detection.trials, detection.mu, detection.gate_bins
    totals = (int(rng.poisson(trials * mu * eta)), int(rng.poisson(trials * p_n)),
              int(rng.poisson(trials * p_n)))
    edges = detection.bin_edges_s
    gate = detection.gate_duration_s
    times = np.clip(rng.normal(0.5 * gate, gate / 10.0, totals[0]), edges[0], edges[-1])
    counts_with = np.histogram(times, bins=edges)[0] + np.bincount(
        rng.integers(0, bins, totals[1]), minlength=bins)
    counts_without = np.bincount(rng.integers(0, bins, totals[2]), minlength=bins)
    return counts_with, counts_without, totals


def sanitize(obj):
    """The report's plain values in two walks, as the runner made them
    before its one-walk form: dataclasses.asdict deep-copies any dataclass,
    then every dict, list and tuple is walked again, numpy scalars become
    Python values, tuples lists and non-finite floats None."""
    if hasattr(type(obj), "__dataclass_fields__"):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def grid_spin_ensemble(dist, n):
    """grid_ensemble's detunings and weights as a SpinEnsemble with every spin
    at |s>, for the ensemble routes (apply_sequence, free_evolve) that the
    grid's array routes are checked against."""
    det, w = grid_ensemble(dist, n)
    pole = np.zeros((n, 3))
    pole[:, 2] = 1.0
    return SpinEnsemble(det, pole, w)


def reference_rotate(states, pulse, phase, detunings_hz, jitter=0.0):
    """One pulse at the given phase on (n, 3) Bloch vectors by the vector
    Rodrigues formula v' = v cos(a) + (n x v) sin(a) + n (n . v) (1 - cos(a)),
    with np.cross.

    The angle is pi (1 + error) + jitter.  Without rabi_hz the axis is
    (cos phase, sin phase, 0) for every spin; with it the axis tilts per spin
    to (rabi cos phase, rabi sin phase, detuning) / g and the angle scales by
    g / rabi, g = hypot(rabi, detuning).
    """
    states = np.asarray(states, dtype=float)
    det = np.asarray(detunings_hz, dtype=float)
    theta = math.pi * (1.0 + pulse.systematic_error) + jitter
    cphi, sphi = math.cos(phase), math.sin(phase)
    if pulse.rabi_hz is None:
        axis = np.array([cphi, sphi, 0.0])
        c, s = math.cos(theta), math.sin(theta)
        cross = np.cross(np.broadcast_to(axis, states.shape), states)
        return states * c + cross * s + np.outer(states @ axis, axis) * (1.0 - c)
    om = pulse.rabi_hz
    g = np.hypot(om, det)
    axis = np.stack([om * cphi / g, om * sphi / g, det / g], axis=1)
    c, s = np.cos(theta * g / om), np.sin(theta * g / om)
    ndotv = np.einsum("ij,ij->i", axis, states)
    return (states * c[:, None] + np.cross(axis, states) * s[:, None]
            + axis * (ndotv * (1.0 - c))[:, None])


def sequence_steps(seq):
    """The sequence as (wait_s, pulse, phase) steps, pulse and phase None for
    the closing wait: the gaps [T/2n, T/n, ..., T/n, T/2n], each followed by
    the sequence's pulse at the next pattern phase."""
    gap = seq.t_s / seq.n_pulses
    steps = [(gap / 2.0 if k == 0 else gap, seq.pulse, phase)
             for k, phase in enumerate(seq.phases)]
    return steps + [(gap / 2.0, None, None)]


def longdouble_rotation(pulse, phase, detunings_hz, jitter=0.0):
    """Each spin's (3, 3, n) rotation by one pulse at the given phase, in
    np.longdouble from the same float64 inputs the package builds it from:
    the detunings, the pulse's error and Rabi frequency, the jitter angle
    and the phase.  The angle is pi (1 + error) + jitter about (cos phase,
    sin phase, 0); with rabi_hz it is g / rabi times that about (rabi cos
    phase, rabi sin phase, detuning) / g, g = hypot(rabi, detuning).  The
    matrix is Rodrigues' c I + s [n]x + (1 - c) n n^T."""
    ld = np.longdouble
    det = np.atleast_1d(np.asarray(detunings_hz).astype(ld))
    theta = ld(math.pi) * (ld(1) + ld(pulse.systematic_error)) + ld(jitter)
    cphi, sphi = np.cos(ld(phase)), np.sin(ld(phase))
    if pulse.rabi_hz is None:
        ones = np.ones_like(det)
        n, angle = np.array([cphi * ones, sphi * ones, 0 * ones]), theta * ones
    else:
        om = ld(pulse.rabi_hz)
        g = np.hypot(om, det)
        n, angle = np.array([om * cphi / g, om * sphi / g, det / g]), theta * g / om
    c, s = np.cos(angle), np.sin(angle)
    zero = np.zeros_like(det)
    cross = np.array([[zero, -n[2], n[1]], [n[2], zero, -n[0]], [-n[1], n[0], zero]])
    return c * np.eye(3, dtype=ld)[:, :, None] + s * cross + (1 - c) * n[:, None] * n[None, :]


def longdouble_pole_track(maps, start, n_max):
    """z of each spin after 0..n_max applications of its map, in np.longdouble.

    maps is a component-major (3, 3, n) stack and start (3, n); each
    application is an explicit product and sum over the map's columns, so
    this shares no kernel with the package.  Returns (n_max + 1, n).
    """
    m = np.asarray(maps).astype(np.longdouble)
    v = np.asarray(start).astype(np.longdouble)
    track = [v[2]]
    for _ in range(n_max):
        v = (m * v[None, :, :]).sum(axis=1)
        track.append(v[2])
    return np.array(track)


def longdouble_sequence_maps(seq, detunings_hz):
    """Each spin's (3, 3, n) map of one unjittered sequence, composed in
    np.longdouble from the same float64 inputs the package composes its
    maps from: the detunings, the wait lengths and each pulse's error, Rabi
    frequency and phase.  A wait turns x and y by 2 pi t detuning; a pulse
    is longdouble_rotation."""
    ld = np.longdouble
    det = np.asarray(detunings_hz).astype(ld)
    maps = np.broadcast_to(np.eye(3, dtype=ld)[:, :, None], (3, 3, det.size)).copy()
    for wait_s, pulse, phase in sequence_steps(seq):
        angle = ld(2) * ld(math.pi) * ld(wait_s) * det
        c, s = np.cos(angle), np.sin(angle)
        x, y = maps[0], maps[1]
        maps[0], maps[1] = c * x - s * y, s * x + c * y  # both formed before either is set
        if pulse is not None:
            assert pulse.jitter_sd == 0
            rotation = longdouble_rotation(pulse, phase, det)
            maps = (rotation[:, :, None, :] * maps[None, :, :, :]).sum(axis=1)
    return maps


def longdouble_population_error(seq, detunings_hz):
    """|g> population after one sequence from |s>, in np.longdouble: the z
    column (m_xz, m_yz, m_zz) of longdouble_sequence_maps is a unit vector,
    so (1 - m_zz)/2 is read as (m_xz^2 + m_yz^2) / (2 (1 + m_zz)), without
    the cancellation of 1 - m_zz when the error is small.  Returns longdoubles."""
    m = longdouble_sequence_maps(seq, detunings_hz)
    return (m[0, 2] ** 2 + m[1, 2] ** 2) / (2 * (1 + m[2, 2]))


def longdouble_random_phase(seq, detunings_hz, weights, start, n_max):
    """|g> population sum(w (1 - z))/2 after 0..n_max applications of the
    sequence to the (3, n) start vectors, with no rounding to float64 before
    the end: the maps of longdouble_sequence_maps applied n_max times."""
    z = longdouble_pole_track(longdouble_sequence_maps(seq, detunings_hz), start, n_max)
    w = np.asarray(weights).astype(np.longdouble)
    return (0.5 * ((1 - z) * w).sum(axis=1)).astype(float)


def find_echo_peak(comb: CombSpectrum) -> tuple[float, float]:
    """Locate the echo maximum between 0.3 and 1.7 times the nominal delay.

    Returns (t_peak, amplitude); the window, in units of 1/periodicity,
    excludes the trivial response at t = 0.  Timing is resolved to the
    step of an 801-point grid (1.4 delays / 800); at very low finesse the
    true peak sits up to ~0.2% of the delay away from 1/periodicity because
    the baseline lobe of an overlapping comb interferes with the echo
    sideband.
    """
    delay = comb.config.afc_delay_s
    times = np.linspace(0.3 * delay, 1.7 * delay, 801)
    amps = echo_trace(comb, times)
    k = int(np.argmax(amps))
    return float(times[k]), float(amps[k])


def with_transverse_states(ens: SpinEnsemble, phase: float = 0.0) -> SpinEnsemble:
    """Return a copy with every spin set fully transverse at the given phase."""
    states = np.zeros((ens.n, 3))
    states[:, 0] = math.cos(phase)
    states[:, 1] = math.sin(phase)
    return replace(ens, states=states)


def collective_coherence(ens: SpinEnsemble) -> complex:
    """Weighted collective transverse amplitude sum(w * (x - i y)).

    A uniformly phased fully transverse ensemble gives magnitude 1; spins
    at the poles contribute 0.  The reduction order is fixed (array order),
    so results do not depend on any parallel execution of per-spin maps.
    """
    x, y = ens.states[:, 0], ens.states[:, 1]
    return complex(np.dot(ens.weights, x), -np.dot(ens.weights, y))


def integrate_bloch(state: np.ndarray, pulse: AdiabaticPulseSpec, detuning_hz: float = 0.0,
                    cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Single-spin wrapper around integrate_bloch_many."""
    return integrate_bloch_many(np.asarray(state, float)[None, :], pulse,
                                np.array([detuning_hz]), cfg)[0]


def adiabaticity(pulse: AdiabaticPulseSpec) -> float:
    """Dimensionless adiabaticity pi^2 * rabi^2 / rate (linear envelope only),
    with rate = chirp_span / duration the sweep rate in Hz/s.

    Equals pi*Omega^2/(2k) with Omega the angular Rabi frequency and k the
    angular sweep rate; inversion is adiabatic for values well above 1.
    """
    if pulse.envelope != "linear":
        raise InvalidArgumentError("adiabaticity is defined for the linear envelope only")
    rate = pulse.chirp_span_hz / pulse.duration_s
    return math.pi ** 2 * pulse.peak_rabi_hz ** 2 / rate


def landau_zener_error(pulse: AdiabaticPulseSpec) -> float:
    """Landau-Zener estimate exp(-adiabaticity) of the inversion error.

    Independent analytic benchmark for the ODE route; valid for the linear
    chirp in the limit of a sweep much wider than the Rabi frequency.
    """
    return math.exp(-adiabaticity(pulse))
