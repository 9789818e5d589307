"""Population-inversion pulses.

Two fidelity tiers are modeled separately so sequence-design effects can be
isolated from off-resonance effects:

* instantaneous pi pulses with a systematic angle error, optional per-pulse
  angle jitter, and an optional finite-Rabi tilted-axis correction, each
  an SU(2) map (cayley_klein) whose Bloch rotation is its bloch_map;
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
from .errors import IntegrationAccuracyError, InvalidArgumentError, check_count
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

# Smallest finite Rabi frequency: far below any physical drive, and high
# enough that theta * g / rabi stays finite for every detuning an
# ensemble.MAX_FWHM_HZ line can hold (at most 50 FWHM, the Lorentzian
# cut-off: the angle stays below about 2e21 rad).
MIN_RABI_HZ = 1e-3

# Sech envelope is truncated where it falls to 1% of peak.
_SECH_TRUNC = math.acosh(100.0)

PULSE_ENVELOPES = ("linear", "sech")


@dataclass(frozen=True, slots=True)
class PulseSpec:
    """A pi pulse with an explicit error model, about the equatorial axis
    its sequence gives it.

    Parameters
    ----------
    systematic_error : float
        Fractional angle error in [-1, 1]; the actual angle is
        pi * (1 + error).
    jitter_sd : float
        Standard deviation of a per-application Gaussian angle jitter,
        as a fraction of pi, in [0, 1].
    rabi_hz : float, optional
        When given, the rotation axis tilts out of the equator by
        atan(detuning / rabi) and the angle scales by the generalized Rabi
        frequency, so off-resonant spins are driven imperfectly.
    """

    systematic_error: float = 0.0
    jitter_sd: float = 0.0
    rabi_hz: float | None = None

    def __post_init__(self):
        # Past 100% of pi an error is no longer a pulse error, and the bound
        # keeps every rotation angle finite.
        if not -1.0 <= self.systematic_error <= 1.0:
            raise InvalidArgumentError(
                f"systematic_error must be in [-1, 1], got {self.systematic_error}")
        if not 0.0 <= self.jitter_sd <= 1.0:
            raise InvalidArgumentError(f"jitter_sd must be in [0, 1], got {self.jitter_sd}")
        if self.rabi_hz is not None and not MIN_RABI_HZ <= self.rabi_hz <= MAX_RABI_HZ:
            raise InvalidArgumentError(f"rabi_hz must be in [{MIN_RABI_HZ:g}, {MAX_RABI_HZ:g}] "
                                       f"when given, got {self.rabi_hz}")


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
    return math.pi * pulse.jitter_sd * rng.standard_normal()


def detuning_array(detunings_hz: float | np.ndarray) -> np.ndarray:
    """detunings_hz as a float array, which must be a scalar or 1-d."""
    det = np.asarray(detunings_hz, dtype=float)
    if det.ndim > 1:
        raise InvalidArgumentError(
            f"detunings must be a scalar or a 1-d array, got shape {det.shape}")
    return det


def cayley_klein(pulse: PulseSpec, detunings_hz: np.ndarray,
                 jitter: float = 0.0) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The pulse's rotation about the X axis as the Cayley-Klein parameters
    of its SU(2) map.

    A rotation by the angle t about the unit axis n is U = [[a, -b*], [b, a*]]
    with a = cos(t/2) - i n_z sin(t/2) and b = -i (n_x + i n_y) sin(t/2).
    A sequence's phase only turns b, so (a, s) is returned with b = -i s
    e^{i phase}.  The angle is t = pi (1 + error) + jitter.  Without
    rabi_hz, a = cos(t/2) and s = sin(t/2) are floats.  With rabi_hz the
    axis tilts to (rabi, 0, detuning) / g and the angle scales by g / rabi,
    with g = hypot(rabi, detuning), per spin: a (complex) and s (real) are
    arrays shaped like detunings_hz, with s = sin(t/2) rabi / g.
    """
    half = 0.5 * (math.pi * (1.0 + pulse.systematic_error) + jitter)
    if pulse.rabi_hz is None:
        return math.cos(half), math.sin(half)
    g = np.hypot(pulse.rabi_hz, detunings_hz)
    angle = half / pulse.rabi_hz * g
    s = np.sin(angle) / g
    return np.cos(angle) - 1j * (s * detunings_hz), s * pulse.rabi_hz


def bloch_map(ab: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) rotations of the Bloch vector made by the SU(2) maps
    with first columns ab; entry [i, j] is component i of the image of
    basis vector j.

    The images of x, y and z have x - i y = a^2 - (b*)^2, -i (a^2 + (b*)^2)
    and 2 a b*, and z components -2 Re(a b), -2 Im(a b) and 1 - 2 |b|^2.
    """
    a, b = ab
    cb = np.conjugate(b)
    images = np.array([a * a - cb * cb, -1j * (a * a + cb * cb), 2.0 * a * cb])
    z_row = -2.0 * a * b
    m = np.array([images.real, -images.imag, [z_row.real, z_row.imag, 1.0 - 2.0 * norm2(b)]])
    return np.ascontiguousarray(np.moveaxis(m, 2, 0))


def norm2(z: np.ndarray) -> np.ndarray:
    """|z|^2, from the real and imaginary parts without a square root."""
    return z.real * z.real + z.imag * z.imag


def rotation_matrix(pulse: PulseSpec, detunings_hz: float | np.ndarray = 0.0,
                    jitter: float = 0.0) -> np.ndarray:
    """The pulse's rotation of the Bloch vector: the bloch_map of its
    cayley_klein parameters (a, -i s).

    Entry [i, j] is component i of the image of basis vector j.  Without
    rabi_hz, or at a scalar detuning, one 3x3 matrix is returned; with
    rabi_hz a 1-d array of n detunings gives an (n, 3, 3) per-spin stack.
    The jitter angle is added to every spin's angle (one RF drive per
    application).
    """
    det = detuning_array(detunings_hz)
    a, s = cayley_klein(pulse, det.ravel(), jitter)
    maps = bloch_map(np.array([np.atleast_1d(a), -1j * np.atleast_1d(s)]))
    return maps if pulse.rabi_hz is not None and det.ndim else maps[0]


def rotate_states(states: np.ndarray, pulse: PulseSpec, detunings_hz: np.ndarray,
                  jitter: float = 0.0) -> np.ndarray:
    """Apply one pulse to (n, 3) Bloch vectors: rotation_matrix(pulse,
    detunings_hz, jitter) applied to each row, in one einsum contraction."""
    m = rotation_matrix(pulse, detunings_hz, jitter)
    return np.einsum("...ij,...j->...i", m, np.asarray(states, dtype=float))


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
    check_count("n_samples", n_samples, minimum=3)
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
