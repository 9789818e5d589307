"""Inhomogeneously broadened spin ensembles and their free evolution.

A spin is a Bloch vector (x, y, z) with the convention z = +1 for the
storage state |s> and z = -1 for the ground state |g>.  Rotations are
right-handed: a positive detuning rotates +x toward +y.  The collective
transverse amplitude is normalized so that a uniformly phased, fully
transverse ensemble has magnitude 1.

Ensembles are immutable values; every operation returns a new ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, check_count
from .rng import DOMAIN_ENSEMBLE, spawn_generator

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian line.
GAUSSIAN_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# Lorentzian tails are truncated here to keep the sampling variance finite.
LORENTZIAN_CUTOFF_FWHM = 50.0

# Widest line: far above any physical spin line (kHz to MHz), and low enough
# that what derives from it stays finite: the grid's +-4.5 sigma, the
# Lorentzian cut-off squared in pdf, and, up to the longest storage time
# (sequences.MAX_STORAGE_TIME_S), the precession phase 2 pi detuning t and the
# envelope exponent (pi fwhm t)^2.
MAX_FWHM_HZ = 1e15

_SHAPES = ("gaussian", "lorentzian")


@dataclass(frozen=True, slots=True)
class DetuningDistribution:
    """Line shape of the inhomogeneous spin broadening.

    Parameters
    ----------
    shape : str
        "gaussian" or "lorentzian".
    fwhm_hz : float
        Full width at half maximum of the line, in Hz.
    """

    shape: str = "gaussian"
    fwhm_hz: float = 27e3

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise InvalidArgumentError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if not 0 < self.fwhm_hz <= MAX_FWHM_HZ:
            raise InvalidArgumentError(
                f"fwhm_hz must be in (0, {MAX_FWHM_HZ:g}], got {self.fwhm_hz}")

    @property
    def sigma_hz(self) -> float:
        """Standard deviation for the Gaussian shape."""
        if self.shape != "gaussian":
            raise InvalidArgumentError("sigma_hz is defined for the gaussian shape only")
        return self.fwhm_hz * GAUSSIAN_FWHM_TO_SIGMA

    def pdf(self, f):
        """Probability density at detuning f (Hz); vectorized."""
        f = np.asarray(f, dtype=float)
        if self.shape == "gaussian":
            s = self.sigma_hz
            return np.exp(-0.5 * (f / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        # Truncated Lorentzian, normalized on [-L, L].
        g = 0.5 * self.fwhm_hz
        L = LORENTZIAN_CUTOFF_FWHM * self.fwhm_hz
        norm = 2.0 * math.atan(L / g)
        dens = g / ((f * f + g * g) * norm)
        return np.where(np.abs(f) <= L, dens, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n detunings (Hz) from the line."""
        if self.shape == "gaussian":
            return rng.normal(0.0, self.sigma_hz, n)
        # Inverse-CDF sampling of the truncated Lorentzian.
        g = 0.5 * self.fwhm_hz
        L = LORENTZIAN_CUTOFF_FWHM * self.fwhm_hz
        u = rng.random(n)
        return g * np.tan((2.0 * u - 1.0) * math.atan(L / g))


@dataclass(frozen=True, eq=False, slots=True)
class SpinEnsemble:
    """A fixed set of spins: detunings, Bloch vectors, and statistical weights.

    Arrays are read-only; operations return new ensembles.  Weights are
    non-negative and sum to 1 (uniform for sampled ensembles, line-shaped
    for stratified grids).
    """

    detunings_hz: np.ndarray  # (n,)
    states: np.ndarray        # (n, 3) Bloch vectors
    weights: np.ndarray       # (n,)

    def __post_init__(self):
        det = np.ascontiguousarray(self.detunings_hz, dtype=float)
        states = np.ascontiguousarray(self.states, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if det.ndim != 1 or det.size < 1:
            raise InvalidArgumentError("detunings_hz must be a non-empty 1-d array")
        n = det.size
        if states.shape != (n, 3):
            raise InvalidArgumentError(f"states must have shape ({n}, 3), got {states.shape}")
        if w.shape != (n,):
            raise InvalidArgumentError(f"weights must have shape ({n},), got {w.shape}")
        if np.any(w < 0):
            raise InvalidArgumentError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError(f"weights must sum to 1, got {w.sum()!r}")
        norms = np.linalg.norm(states, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise InvalidArgumentError(f"Bloch norms must be <= 1, max is {norms.max()!r}")
        for name, arr in (("detunings_hz", det), ("states", states), ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.detunings_hz.size


def sample_detunings(dist: DetuningDistribution, n: int, seed: int) -> SpinEnsemble:
    """Sample an ensemble of n spins from the line, all initialized to |s>.

    Sampling is deterministic in the seed: identical (dist, n, seed) give
    bit-identical ensembles.  Weights are uniform 1/n.

    Parameters
    ----------
    dist : DetuningDistribution
    n : int
        Number of spins, >= 1.
    seed : int
        Root seed; detunings come from the ensemble stream of the seed.
    """
    det = draw_detunings(dist, n, seed)
    states = np.zeros((n, 3))
    states[:, 2] = 1.0
    return SpinEnsemble(det, states, np.full(n, 1.0 / n))


def draw_detunings(dist: DetuningDistribution, n: int, seed: int) -> np.ndarray:
    """The n detunings (Hz) of sample_detunings(dist, n, seed), bit for bit,
    without the ensemble: for a caller that needs no states."""
    check_count("n", n)
    return dist.sample(n, spawn_generator(seed, DOMAIN_ENSEMBLE))


def grid_ensemble(dist: DetuningDistribution, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified line: (detunings_hz, weights) of n grid
    points, weighted by the line pdf and normalized to sum to 1.

    Replaces random sampling where low-noise averages are needed (envelope
    checks, efficiency chains).  The grid spans +-4.5 standard deviations
    for a Gaussian line and +-3 FWHM for a Lorentzian.
    """
    check_count("n", n)
    if dist.shape == "gaussian":
        half = 4.5 * dist.sigma_hz
    else:
        half = 3.0 * dist.fwhm_hz
    det = np.linspace(-half, half, n)
    w = dist.pdf(det)
    return det, w / w.sum()


def free_evolve(ens: SpinEnsemble, dt: float) -> SpinEnsemble:
    """Evolve every spin freely for dt seconds.

    Each spin precesses about z by 2*pi*detuning*dt (right-handed); z is
    unchanged.

    Parameters
    ----------
    ens : SpinEnsemble
    dt : float
        Duration in seconds, >= 0.
    """
    if dt < 0:
        raise InvalidArgumentError(f"dt must be >= 0, got {dt}")
    theta = 2.0 * math.pi * dt * ens.detunings_hz
    c, s = np.cos(theta), np.sin(theta, out=theta)
    states = np.array(ens.states, dtype=float)
    x, y = states[:, 0], states[:, 1]
    cx = c * x - s * y
    y *= c
    y += s * x
    x[...] = cx
    return replace(ens, states=states)


def dephasing_envelope(dist: DetuningDistribution, t):
    """Closed-form |collective amplitude| after free evolution of time t.

    Gaussian line:    exp(-(pi * fwhm * t)^2 / (4 ln 2))
    Lorentzian line:  exp(-pi * fwhm * t)

    t may be a scalar or array of seconds, all >= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidArgumentError("t must be >= 0")
    if dist.shape == "gaussian":
        arg = (math.pi * dist.fwhm_hz * t_arr) ** 2 / (4.0 * math.log(2.0))
        out = np.exp(-arg)
    else:
        out = np.exp(-math.pi * dist.fwhm_hz * t_arr)
    return float(out) if np.isscalar(t) else out


def coherence_1e_time(dist: DetuningDistribution) -> float:
    """Time at which the closed-form envelope reaches 1/e (the T2* figure)."""
    if dist.shape == "gaussian":
        return 2.0 * math.sqrt(math.log(2.0)) / (math.pi * dist.fwhm_hz)
    return 1.0 / (math.pi * dist.fwhm_hz)
