"""Noise budget, photon statistics, and figures of merit.

Counting noise is modeled as Poissonian and white in time within the
detection gate.  The signal-to-noise estimator uses background subtraction,
(with - without)/without, matching the blocked-input reference measurement.
The key derived figures are mu1 = p_n/eta (the input photon number giving
unit output signal-to-noise) and the post-selected qubit fidelity bound
F = (1 + mu1/p)/(1 + 2 mu1/p) with classical limit 2/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, InvalidArgumentError, check_count
from .rng import DOMAIN_DETECTION, spawn_generator

# Most photons a run may expect, over all its modes: each one is drawn and
# binned on its own (8 bytes apiece, so 128 MiB here), and numpy's Poisson
# sampler refuses means far above this anyway.  A multimode run draws its
# modes one after another, so the bound is on their sum, which
# runner._run_multimode checks before it draws the first mode.
MAX_RUN_PHOTONS = 2 ** 24

# Most histogram bins a gate may have.  A run's peak memory grows by about
# 300 bytes per bin on fig2a and 510 on fig2c (five modes), measured with
# tracemalloc, mostly CSV rows; this keeps what the bins add under 160 MiB.
# Each mode of a multimode run keeps its own histograms, so there the bound
# is on n_modes x bins (config.validate_config): fig2c at 2^18 mode-bins
# peaked at 47-48 MiB, about 190 bytes per mode-bin, in about 2 s.
MAX_GATE_BINS = 2 ** 18


class ValueWithError(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Additive contributions to the unconditional noise probability; this is
    the config's noise section.

    optical_readout_noise: control-pulse-induced emission with no RF applied.
    residual_coupling: converts residual spin population into output-mode
    noise photons (calibrated so 0.2% population contributes 2e-3).
    excess: unattributed measured noise above the theoretical floor; the
    with-RF data exceed the floor and the gap is represented, not explained.
    residual_population: the spin population left after the decoupling
    sequence, in [0, 0.5].  The contributions together may not exceed 1.
    """

    optical_readout_noise: float = 5e-3
    residual_coupling: float = 1.0
    detector_dark: float = 0.0
    excess: float = 0.0
    residual_population: float = 0.002

    def __post_init__(self):
        for name in ("optical_readout_noise", "residual_coupling", "detector_dark", "excess"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.residual_population <= 0.5:
            raise InvalidArgumentError(
                f"residual_population must be in [0, 0.5], got {self.residual_population}")
        p_n = noise_probability(self)
        if p_n > 1.0:
            raise InvalidArgumentError(f"noise contributions exceed 1 ({p_n:g})")


def noise_probability(model: NoiseModel) -> float:
    """Unconditional noise probability p_n of the model.

    p_n = optical_readout_noise + residual_coupling * residual_population
          + detector_dark + excess
    """
    return (model.optical_readout_noise + model.residual_coupling * model.residual_population
            + model.detector_dark + model.excess)


def snr_analytic(mu: float, eta: float, p_n: float) -> float:
    """Expected output SNR = mu * eta / p_n."""
    if mu < 0:
        raise InvalidArgumentError(f"mu must be >= 0, got {mu}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if p_n == 0.0:
        raise DomainError("noise-free: SNR is undefined at p_n = 0")
    if p_n < 0:
        raise InvalidArgumentError(f"p_n must be >= 0, got {p_n}")
    return mu * eta / p_n


def mu1(p_n: float, eta: float) -> float:
    """Input photon number giving SNR = 1 at the output: mu1 = p_n / eta."""
    if eta == 0.0:
        raise DomainError("mu1 is undefined at eta = 0")
    if not 0.0 < eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in (0, 1], got {eta}")
    if p_n < 0:
        raise InvalidArgumentError(f"p_n must be >= 0, got {p_n}")
    return p_n / eta


class FidelityResult(NamedTuple):
    fidelity: float
    quantum: bool  # True iff above the classical bound 2/3, i.e. p > mu1


def qubit_fidelity(mu1_value: float, p: float) -> FidelityResult:
    """Post-selected storage fidelity bound for a single-photon qubit.

    F = (1 + mu1/p) / (1 + 2 mu1/p), where p is the probability of having
    the qubit before the memory; assumes state-independent (white) noise.
    F > 2/3 exactly when p > mu1.
    """
    if mu1_value < 0:
        raise InvalidArgumentError(f"mu1 must be >= 0, got {mu1_value}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must be in (0, 1], got {p}")
    r = mu1_value / p
    f = (1.0 + r) / (1.0 + 2.0 * r)
    return FidelityResult(f, p > mu1_value)


@dataclass(frozen=True, slots=True)
class QuantumWindow:
    """Open interval of qubit probabilities p allowing quantum storage."""

    lower: float
    upper: float = 1.0

    @property
    def empty(self) -> bool:
        return self.lower >= self.upper


def quantum_regime_window(mu1_value: float) -> QuantumWindow:
    """The window mu1 < p < 1; empty when mu1 >= 1."""
    if mu1_value < 0:
        raise InvalidArgumentError(f"mu1 must be >= 0, got {mu1_value}")
    return QuantumWindow(lower=mu1_value)


@dataclass(frozen=True, slots=True)
class DetectionConfig:
    """Photon counting of one run; this is the config's detection section.

    Each of trials draws the output window with mu input photons on
    average, and once more with the input blocked; the counts are
    histogrammed into gate_bins over gate_duration_s.
    """

    mu: float = 2.0
    trials: int = 100000
    gate_duration_s: float = 2e-6
    gate_bins: int = 40

    def __post_init__(self):
        if not self.mu >= 0:
            raise InvalidArgumentError(f"mu must be >= 0, got {self.mu}")
        check_count("trials", self.trials)
        if not self.gate_duration_s > 0:
            raise InvalidArgumentError(f"gate_duration_s must be > 0, got {self.gate_duration_s}")
        check_count("gate_bins", self.gate_bins)
        if self.gate_bins > MAX_GATE_BINS:
            raise InvalidArgumentError(
                f"gate_bins must be in [1, {MAX_GATE_BINS}], got {self.gate_bins}")

    @property
    def bin_edges_s(self) -> np.ndarray:
        return np.linspace(0.0, self.gate_duration_s, self.gate_bins + 1)


@dataclass(frozen=True, eq=False, slots=True)
class RunStatistics:
    """Photon-counting outcome of one simulated run.

    counts_with/counts_without are time-bin histograms accumulated over all
    trials (input unblocked / blocked).  The estimators satisfy
    snr.value * mu1.value == mu exactly by construction.
    """

    mu: float
    trials: int
    bin_edges_s: np.ndarray
    counts_with: np.ndarray
    counts_without: np.ndarray
    eta: ValueWithError
    p_n: ValueWithError
    snr: ValueWithError
    mu1: ValueWithError

    def to_report(self) -> dict:
        return {
            "mu": self.mu,
            "trials": self.trials,
            "eta": self.eta.value, "eta_stderr": self.eta.stderr,
            "p_n": self.p_n.value, "p_n_stderr": self.p_n.stderr,
            "snr": self.snr.value, "snr_stderr": self.snr.stderr,
            "mu1": self.mu1.value, "mu1_stderr": self.mu1.stderr,
        }


def check_run_photons(mu: float, eta: float, p_n: float, trials: int, lower: str) -> None:
    """Raise CapacityError if trials of simulate_run with mean input mu, input
    on and off together, expect more than MAX_RUN_PHOTONS photons; the
    message says to lower the inputs that lower names."""
    expected = trials * (mu * eta + 2.0 * p_n)
    if not expected <= MAX_RUN_PHOTONS:
        raise CapacityError(f"the run expects {expected:g} photons, more than the "
                            f"{MAX_RUN_PHOTONS} it may draw; lower {lower}")


def simulate_run(detection: DetectionConfig, eta: float, p_n: float, seed: int = 0,
                 stream: int = 0) -> RunStatistics:
    """Monte Carlo photon counting with and without the input pulse.

    Per trial the output-window count is Poisson with mean mu*eta + p_n
    (input on) or p_n (input blocked), mu and the trials and gate taken
    from detection.  Signal photons are binned on a
    pulse-shaped profile at the gate center, noise photons uniformly; the
    per-bin placement is cosmetic and does not affect the estimators,
    which use whole-gate totals.  Identical seeds give identical
    histograms byte for byte; stream separates independent runs (e.g.
    temporal modes) under one root seed.  A run that expects more than
    MAX_RUN_PHOTONS photons, input on and off together, raises
    CapacityError.
    """
    if eta < 0 or p_n < 0:
        raise InvalidArgumentError("eta and p_n must be >= 0")
    mu, trials = detection.mu, detection.trials
    check_run_photons(mu, eta, p_n, trials, "trials or mu")
    rng = spawn_generator(seed, DOMAIN_DETECTION, stream)
    n_sig = int(rng.poisson(trials * mu * eta))
    n_noise_with = int(rng.poisson(trials * p_n))
    n_noise_without = int(rng.poisson(trials * p_n))

    edges = detection.bin_edges_s
    center = 0.5 * detection.gate_duration_s
    width = detection.gate_duration_s / 10.0
    sig_times = np.clip(rng.normal(center, width, n_sig), edges[0], edges[-1])
    counts_with = np.histogram(sig_times, bins=edges)[0]
    counts_with = counts_with + np.bincount(
        rng.integers(0, detection.gate_bins, n_noise_with), minlength=detection.gate_bins)
    counts_without = np.bincount(
        rng.integers(0, detection.gate_bins, n_noise_without), minlength=detection.gate_bins)

    W = (n_sig + n_noise_with) / trials
    B = n_noise_without / trials
    var_w, var_b = W / trials, B / trials
    eta_est = ValueWithError((W - B) / mu if mu > 0 else math.nan,
                             math.sqrt(var_w + var_b) / mu if mu > 0 else math.nan)
    p_n_est = ValueWithError(B, math.sqrt(var_b))
    if B > 0:
        snr_val = (W - B) / B
        snr_err = math.sqrt(W * (B + W) / (trials * B ** 3))
    else:
        snr_val, snr_err = math.inf, math.nan
    if W > B > 0:
        mu1_val = mu * B / (W - B)
        mu1_err = mu * math.sqrt(W * B * (B + W) / trials) / (W - B) ** 2
    else:
        mu1_val, mu1_err = math.nan, math.nan
    return RunStatistics(mu=mu, trials=trials, bin_edges_s=edges,
                         counts_with=counts_with, counts_without=counts_without,
                         eta=eta_est, p_n=p_n_est,
                         snr=ValueWithError(snr_val, snr_err),
                         mu1=ValueWithError(mu1_val, mu1_err))
