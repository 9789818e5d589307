"""Reference implementations the tests check the package against.

Each one computes what a package route computes by another formula, so a
test that compares the two does not compare the package with itself.
"""

import math

import numpy as np

from afcmem.ensemble import SpinEnsemble, grid_ensemble


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
