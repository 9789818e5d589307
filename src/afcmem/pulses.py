"""Population-inversion pulses.

Two fidelity tiers are modeled separately so sequence-design effects can be
isolated from off-resonance effects:

* instantaneous rotations with a systematic angle error, optional per-pulse
  angle jitter, and an optional finite-Rabi tilted-axis correction;
* chirped adiabatic pulses integrated through the Bloch equations with a
  fixed-step RK4 (fixed step for bit-reproducibility).

Population error of a pulse always means probability mass on the wrong
pole of the Bloch sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import DetuningDistribution
from .errors import IntegrationAccuracyError, InvalidArgumentError
from .rng import DOMAIN_JITTER, spawn_generator

# Norm drift above this aborts an integration as too coarse.
NORM_DRIFT_LIMIT = 1e-4

# Default RK4 resolution, in steps per pulse duration.
DEFAULT_STEP_DIVISOR = 5000

# Coarsest allowed resolution.
MIN_STEP_DIVISOR = 1000

# Largest finite Rabi frequency: far above any physical drive (kHz to MHz),
# and low enough that the tilted-axis angle theta * g / rabi, with the
# generalized Rabi frequency g = hypot(rabi, detuning), stays finite for
# every detuning an ensemble.MAX_FWHM_HZ line can hold.
MAX_RABI_HZ = 1e15

# Sech envelope is truncated where it falls to 1% of peak.
_SECH_TRUNC = math.acosh(100.0)

PULSE_ENVELOPES = ("linear", "sech")


@dataclass(frozen=True)
class PulseSpec:
    """An instantaneous rotation pulse with an explicit error model.

    Parameters
    ----------
    axis_phase : float
        Equatorial rotation-axis phase in rad (0 = X axis, pi/2 = Y axis).
    nominal_angle : float
        Intended rotation angle in rad (pi for inversion).
    systematic_error : float
        Fractional angle error in [-1, 1]; the actual angle is
        nominal * (1 + error).
    jitter_sd : float
        Standard deviation of a per-application Gaussian angle jitter,
        as a fraction of the nominal angle, in [0, 1].
    rabi_hz : float, optional
        When given, the rotation axis tilts out of the equator by
        atan(detuning / rabi) and the angle scales by the generalized Rabi
        frequency, so off-resonant spins are driven imperfectly.
    """

    axis_phase: float = 0.0
    nominal_angle: float = math.pi
    systematic_error: float = 0.0
    jitter_sd: float = 0.0
    rabi_hz: float | None = None

    def __post_init__(self):
        if not self.nominal_angle > 0:
            raise InvalidArgumentError(f"nominal_angle must be > 0, got {self.nominal_angle}")
        # Past 100% of the nominal angle an error is no longer a pulse error,
        # and the bound keeps every rotation angle finite.
        if not -1.0 <= self.systematic_error <= 1.0:
            raise InvalidArgumentError(
                f"systematic_error must be in [-1, 1], got {self.systematic_error}")
        if not 0.0 <= self.jitter_sd <= 1.0:
            raise InvalidArgumentError(f"jitter_sd must be in [0, 1], got {self.jitter_sd}")
        if self.rabi_hz is not None and not 0 < self.rabi_hz <= MAX_RABI_HZ:
            raise InvalidArgumentError(
                f"rabi_hz must be in (0, {MAX_RABI_HZ:g}] when given, got {self.rabi_hz}")


@dataclass(frozen=True)
class AdiabaticPulseSpec:
    """A chirped adiabatic inversion pulse.

    envelope "linear": constant Rabi amplitude, linear frequency sweep.
    envelope "sech":   hyperbolic-secant amplitude with a tanh frequency
    sweep (truncated at 1% of peak amplitude); the full chirp_span is swept
    in both cases, centered on the line.
    """

    peak_rabi_hz: float
    chirp_span_hz: float
    duration_s: float
    envelope: str = "linear"

    def __post_init__(self):
        if self.peak_rabi_hz < 0:
            raise InvalidArgumentError(f"peak_rabi_hz must be >= 0, got {self.peak_rabi_hz}")
        for name in ("chirp_span_hz", "duration_s"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.envelope not in PULSE_ENVELOPES:
            raise InvalidArgumentError(f"envelope must be one of {PULSE_ENVELOPES}, got {self.envelope!r}")

    def drive(self, t: float) -> tuple[float, float]:
        """Instantaneous (rabi_hz, chirp_hz) at time t into the pulse."""
        if self.envelope == "linear":
            rate = self.chirp_span_hz / self.duration_s
            return self.peak_rabi_hz, -0.5 * self.chirp_span_hz + rate * t
        beta = 2.0 * _SECH_TRUNC / self.duration_s
        x = beta * (t - 0.5 * self.duration_s)
        rabi = self.peak_rabi_hz / math.cosh(x)
        chirp = 0.5 * self.chirp_span_hz * math.tanh(x) / math.tanh(_SECH_TRUNC)
        return rabi, chirp


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; step must be <= duration/1000."""

    step_s: float

    def __post_init__(self):
        if not self.step_s > 0:
            raise InvalidArgumentError(f"step_s must be > 0, got {self.step_s}")

    @classmethod
    def for_pulse(cls, pulse: AdiabaticPulseSpec) -> "IntegratorConfig":
        """DEFAULT_STEP_DIVISOR steps per pulse duration."""
        return cls(step_s=pulse.duration_s / DEFAULT_STEP_DIVISOR)


def jitter_angle(pulse: PulseSpec, seed: int | None, pulse_index: int = 0) -> float:
    """Deterministic per-application angle jitter in rad, keyed by (seed, pulse_index)."""
    if pulse.jitter_sd == 0.0 or seed is None:
        return 0.0
    rng = spawn_generator(seed, DOMAIN_JITTER, pulse_index)
    return pulse.nominal_angle * pulse.jitter_sd * rng.standard_normal()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (n, 3) arrays with np.cross's arithmetic.  np.cross
    copies both inputs first, and its setup dominates the small calls that
    matter here: rotation_matrix (three rows) measured about 45 us per call
    with np.cross and 27 us with this (2-vCPU Xeon, numpy 2.4)."""
    out = np.empty(b.shape)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def rotate_states(states: np.ndarray, pulse: PulseSpec, detunings_hz: np.ndarray,
                  jitter: float = 0.0) -> np.ndarray:
    """Apply one pulse to an array of Bloch vectors (vectorized Rodrigues rotation).

    v' = v cos(a) + (n x v) sin(a) + n (n . v) (1 - cos(a)) about the unit
    axis n.  The jitter angle is shared by all spins (one RF drive per
    application); only the finite-Rabi axis tilt differs per spin.
    """
    states = np.asarray(states, dtype=float)
    det = np.asarray(detunings_hz, dtype=float)
    theta = pulse.nominal_angle * (1.0 + pulse.systematic_error) + jitter
    cphi, sphi = math.cos(pulse.axis_phase), math.sin(pulse.axis_phase)
    if pulse.rabi_hz is None:
        axis = np.array([cphi, sphi, 0.0])
        c, s = math.cos(theta), math.sin(theta)
        cross = _cross(np.broadcast_to(axis, states.shape), states)
        return states * c + cross * s + np.outer(states @ axis, axis) * (1.0 - c)
    om = pulse.rabi_hz
    g = np.hypot(om, det)
    axis = np.stack([om * cphi / g, om * sphi / g, det / g], axis=1)
    ang = theta * g / om
    c, s = np.cos(ang), np.sin(ang)
    ndotv = np.einsum("ij,ij->i", axis, states)
    return (states * c[:, None] + _cross(axis, states) * s[:, None]
            + axis * (ndotv * (1.0 - c))[:, None])


def rotation_matrix(pulse: PulseSpec, jitter: float = 0.0) -> np.ndarray:
    """Exact 3x3 rotation matrix of one pulse on a resonant spin (no randomness)."""
    return rotate_states(np.eye(3), pulse, np.zeros(3), jitter=jitter).T


def _bloch_derivative(states: np.ndarray, det: np.ndarray, rabi_hz: float, chirp_hz: float) -> np.ndarray:
    """dB/dt = omega x B with omega = 2*pi*(rabi, 0, detuning - chirp)."""
    fz = 2.0 * math.pi * (det - chirp_hz)
    fx = 2.0 * math.pi * rabi_hz
    out = np.empty_like(states)
    out[:, 0] = -fz * states[:, 1]
    out[:, 1] = fz * states[:, 0] - fx * states[:, 2]
    out[:, 2] = fx * states[:, 1]
    return out


def integrate_bloch_many(states: np.ndarray, pulse: AdiabaticPulseSpec, detunings_hz: np.ndarray,
                         cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Integrate the Bloch equations through the pulse for many spins at once.

    The equation of motion is dB/dt = omega_eff(t) x B with
    omega_eff = 2*pi*(rabi(t), 0, detuning - chirp(t)), which keeps the
    global right-handed sign convention (positive detuning rotates +x
    toward +y).  Fixed-step RK4; the step count is rounded so an integer
    number of steps spans the pulse.

    Raises
    ------
    IntegrationAccuracyError
        If any Bloch norm drifts by more than 1e-4 (step too coarse).
    """
    if cfg is None:
        cfg = IntegratorConfig.for_pulse(pulse)
    if cfg.step_s > pulse.duration_s / MIN_STEP_DIVISOR:
        raise InvalidArgumentError(
            f"step_s must be <= duration/{MIN_STEP_DIVISOR} = "
            f"{pulse.duration_s / MIN_STEP_DIVISOR:g}, got {cfg.step_s:g}")
    det = np.asarray(detunings_hz, dtype=float)
    B = np.array(states, dtype=float, copy=True)
    norms_in = np.linalg.norm(B, axis=1)
    nsteps = max(1, round(pulse.duration_s / cfg.step_s))
    h = pulse.duration_s / nsteps
    t = 0.0
    for _ in range(nsteps):
        r1, c1 = pulse.drive(t)
        r2, c2 = pulse.drive(t + 0.5 * h)
        r3, c3 = pulse.drive(t + h)
        k1 = _bloch_derivative(B, det, r1, c1)
        k2 = _bloch_derivative(B + 0.5 * h * k1, det, r2, c2)
        k3 = _bloch_derivative(B + 0.5 * h * k2, det, r2, c2)
        k4 = _bloch_derivative(B + h * k3, det, r3, c3)
        B += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    drift = np.abs(np.linalg.norm(B, axis=1) - norms_in).max()
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationAccuracyError(
            f"Bloch norm drifted by {drift:.3e} (> {NORM_DRIFT_LIMIT:g}); reduce step_s")
    return B


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


@dataclass(frozen=True)
class InversionProfile:
    """Inversion error vs detuning, plus the line-weighted mean error."""

    detunings_hz: np.ndarray
    errors: np.ndarray
    mean_error: float


def inversion_error_profile(pulse: PulseSpec | AdiabaticPulseSpec, dist: DetuningDistribution,
                            n_samples: int = 41) -> InversionProfile:
    """Inversion error across the spin line for one pulse.

    The error at each detuning is (1 + z_final)/2 for a spin starting at
    z = +1 (target pole is z = -1).  The grid is deterministic, spanning
    +-2 FWHM, and the mean is weighted by the line shape.

    Parameters
    ----------
    pulse : PulseSpec or AdiabaticPulseSpec
        Instantaneous pulses are evaluated exactly; adiabatic pulses via
        the RK4 route at its default resolution.
    dist : DetuningDistribution
    n_samples : int
        Grid size, >= 3.
    """
    if n_samples < 3:
        raise InvalidArgumentError(f"n_samples must be >= 3, got {n_samples}")
    det = np.linspace(-2.0 * dist.fwhm_hz, 2.0 * dist.fwhm_hz, n_samples)
    states = np.zeros((n_samples, 3))
    states[:, 2] = 1.0
    if isinstance(pulse, AdiabaticPulseSpec):
        final = integrate_bloch_many(states, pulse, det)
    else:
        final = rotate_states(states, pulse, det)
    errors = 0.5 * (1.0 + final[:, 2])
    w = dist.pdf(det)
    w = w / w.sum()
    return InversionProfile(det, errors, float(np.dot(w, errors)))
