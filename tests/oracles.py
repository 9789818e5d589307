"""Reference implementations the tests check the package against, and the
helpers only tests need.

Each reference computes what a package route computes by another formula,
so a test that compares the two does not compare the package with itself.
The helpers (the echo peak search, transverse preparation, the collective
coherence of an ensemble, the single-spin RK4 wrapper and the Landau-Zener
estimate) serve no pipeline, so they live here rather than in the package.
"""

import math
from dataclasses import replace

import numpy as np

from afcmem.afc import CombSpectrum, echo_trace
from afcmem.ensemble import SpinEnsemble, grid_ensemble
from afcmem.errors import InvalidArgumentError
from afcmem.pulses import AdiabaticPulseSpec, IntegratorConfig, integrate_bloch_many


def grid_spin_ensemble(dist, n):
    """grid_ensemble's detunings and weights as a SpinEnsemble with every spin
    at |s>, for the ensemble routes (apply_sequence, free_evolve) that the
    grid's array routes are checked against."""
    det, w = grid_ensemble(dist, n)
    pole = np.zeros((n, 3))
    pole[:, 2] = 1.0
    return SpinEnsemble(det, pole, w)


def reference_rotate(states, pulse, detunings_hz, jitter=0.0):
    """One pulse on (n, 3) Bloch vectors by the vector Rodrigues formula
    v' = v cos(a) + (n x v) sin(a) + n (n . v) (1 - cos(a)), with np.cross.

    Without rabi_hz the axis is (cos phase, sin phase, 0) for every spin;
    with it the axis tilts per spin to (rabi cos phase, rabi sin phase,
    detuning) / g and the angle scales by g / rabi, g = hypot(rabi, detuning).
    """
    states = np.asarray(states, dtype=float)
    det = np.asarray(detunings_hz, dtype=float)
    theta = pulse.nominal_angle * (1.0 + pulse.systematic_error) + jitter
    cphi, sphi = math.cos(pulse.axis_phase), math.sin(pulse.axis_phase)
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
    """Each spin's (3, 3, n) map of one resonant, unjittered sequence, composed
    in np.longdouble from the same float64 inputs the package composes its
    maps from: the detunings, the wait lengths and each pulse's angle, error
    and phase.  A wait turns x and y by 2 pi t detuning; a pulse is the
    Rodrigues matrix about (cos phase, sin phase, 0)."""
    ld = np.longdouble
    det = np.asarray(detunings_hz).astype(ld)
    maps = np.broadcast_to(np.eye(3, dtype=ld)[:, :, None], (3, 3, det.size)).copy()
    for step in seq.steps:
        if step.wait_s > 0:
            angle = ld(2) * ld(math.pi) * ld(step.wait_s) * det
            c, s = np.cos(angle), np.sin(angle)
            x, y = maps[0], maps[1]
            maps[0], maps[1] = c * x - s * y, s * x + c * y  # both formed before either is set
        if step.pulse is not None:
            pulse = step.pulse
            assert pulse.rabi_hz is None and pulse.jitter_sd == 0
            theta = ld(pulse.nominal_angle) * (ld(1) + ld(pulse.systematic_error))
            c, s = np.cos(theta), np.sin(theta)
            n = np.array([np.cos(ld(pulse.axis_phase)), np.sin(ld(pulse.axis_phase)), ld(0)])
            cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]], dtype=ld)
            rotation = c * np.eye(3, dtype=ld) + s * cross + (1 - c) * np.outer(n, n)
            maps = (rotation[:, :, None, None] * maps[None, :, :, :]).sum(axis=1)
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
