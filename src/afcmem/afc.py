"""Atomic-frequency-comb optical stage and the memory efficiency chain.

The comb is a periodic grating of Gaussian absorption teeth; its Fourier
response produces an echo one comb period later (t = 1/delta).  The overall
memory efficiency factorizes into the comb echo efficiency, the squared
optical-to-spin transfer, the squared surviving spin coherence over the
storage window, an optional fitted spin-decay calibration factor, and a
readout loss.  MemoryModel, which is also the config's memory section,
holds the chain's own factors (transfer, write stage, readout loss, fitted
decay); memory_efficiency takes the comb, the spin line and the sequence
kind as arguments of their own.  ModesConfig, the config's modes section,
is the multimode schedule that memory_timeline fits into one AFC delay.

The absorption part of the echo efficiency, d_eff^2 * exp(-d_eff) *
exp(-d0) with d_eff = peak depth / finesse, is the standard forward-recall
result from the AFC literature; it is a modeling choice here, not something
derived by this package.  The comb dephasing part and the echo trace over
time are both evaluated in closed form (Gaussian envelope times a tooth
sum, plus the pedestal's Dirichlet kernel), the dephasing part from the
comb's config alone, so the efficiency chain never samples a comb; the
DFT of the sampled comb (afc_echo_amplitude) is the oracle of both.  The
dephasing part is memoized per comb config, and only the spectrum and
echo-trace outputs sample the comb: once per comb config per process, as
the runner keeps the last comb's output texts.  With a decoupling sequence,
the chain's rephasing fidelity is memoized too, keyed by the line (its shape
and width), the DDSequence (kind, storage time and pulse) and, for a
jittered pulse, the seed.  Every memo keys on frozen values that refuse
numbers other than Python ints and floats (errors.check_numbers).  Both
memos serve a process that runs again (over seeds, or presets that share a
storage time); a one-run CLI process gains nothing, as each preset asks for
each fidelity once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .ensemble import DetuningDistribution, dephasing_envelope, grid_ensemble
from .errors import CapacityError, InvalidArgumentError, check_count, check_numbers
from .pulses import PulseSpec
from .sequences import DDSequence, build_sequence, rephasing_fidelity

# Frequency-grid points per tooth FWHM when sampling a comb.
_GRID_PER_TOOTH = 25.0

# Narrowest comb tooth: far below any physical one (Hz to MHz), and wide
# enough that the grid step and the tooth rate 4 ln2 / FWHM^2 stay nonzero
# and finite; a tooth FWHM that underflows to 0 would divide by zero.
MIN_TOOTH_FWHM_HZ = 1e-3

# Largest frequency grid a comb may ask for (8 MiB per float64 array); the
# finesse-1000 comb of the tests needs about half of it.  The runner holds
# the last comb's two trace texts between runs: 4.98 MB for that comb (4.96
# MB of it comb_spectrum.csv at 500,201 points), 17.4 MB for a comb at the
# bound (finesse 2795 over 1.5 MHz, 1,048,326 points) and 19.3 MB for it
# with background_depth 0.3.  Two '%.12g' cells a row take at most 38
# bytes, so no comb's texts pass 40 MB.
MAX_COMB_GRID_POINTS = 2 ** 20

# Largest teeth x grid points build_comb may evaluate: it adds every tooth
# over the whole grid, at about 14 ns per pair on a 2-vCPU host, so this
# caps a build near 0.25 s.  The finesse-1000 test comb needs 21 x 500,201.
MAX_COMB_BUILD_WORK = 2 ** 24

# Largest optical depth a comb may have: exp(-700) is below 1e-304, an
# opaque sample, and depths past it overflow the sampled comb's sums.
MAX_OPTICAL_DEPTH = 700.0

# Spins of the stratified grid over which memory_efficiency runs a sequence.
_CHAIN_SPINS = 4096

# Most rephasing fidelities memory_efficiency keeps per process.  An entry is
# one float under its (line, DDSequence, seed) key: 309 bytes with the key's
# new line and sequence and the cache's own link, measured with tracemalloc
# over 1024 storage times that share one pulse, and 389 when each has a pulse
# of its own, so a full memo holds under 0.4 MB.
_FIDELITY_MEMO_SIZE = 1024

# Most temporal modes a multimode run may have.  Each mode adds about 9.3 KB
# to a run's peak memory (fig2c, 40 bins, measured with tracemalloc), and is
# one counting Monte Carlo: about 0.4 ms at fig2c's 100,000 trials on a
# 2-vCPU host, so the most modes take about 7 s.
MAX_MODES = 2 ** 14


@dataclass(frozen=True, slots=True)
class CombConfig:
    """Geometry of the spectral grating.

    periodicity_hz is the tooth spacing; finesse = spacing / tooth FWHM;
    optical_depth is the per-pass peak absorbance d = alpha*L, multiplied
    by the number of passes of the input beam; background_depth is a
    uniform absorbing pedestal.
    """

    periodicity_hz: float = 100e3
    finesse: float = 4.0
    width_hz: float = 2e6
    optical_depth: float = 2.6
    passes: int = 2
    background_depth: float = 0.0

    def __post_init__(self):
        check_numbers(**{f.name: getattr(self, f.name) for f in fields(self)})
        if not self.periodicity_hz > 0:
            raise InvalidArgumentError(f"periodicity_hz must be > 0, got {self.periodicity_hz}")
        if not self.finesse > 1:
            raise InvalidArgumentError(f"finesse must be > 1, got {self.finesse}")
        if self.width_hz < 3.0 * self.periodicity_hz:
            raise InvalidArgumentError(
                f"width_hz must cover at least 3 teeth (>= {3.0 * self.periodicity_hz:g}), "
                f"got {self.width_hz:g}")
        if not 0 < self.optical_depth <= MAX_OPTICAL_DEPTH:
            raise InvalidArgumentError(
                f"optical_depth must be in (0, {MAX_OPTICAL_DEPTH:g}], got {self.optical_depth}")
        if self.passes not in (1, 2):
            raise InvalidArgumentError(f"passes must be 1 or 2, got {self.passes}")
        if not 0 <= self.background_depth <= MAX_OPTICAL_DEPTH:
            raise InvalidArgumentError(f"background_depth must be in [0, {MAX_OPTICAL_DEPTH:g}], "
                                       f"got {self.background_depth}")
        if not all(map(math.isfinite, (self.periodicity_hz, self.finesse, self.width_hz))):
            raise InvalidArgumentError("periodicity_hz, finesse and width_hz must be finite")
        if not self.tooth_fwhm_hz >= MIN_TOOTH_FWHM_HZ:
            raise InvalidArgumentError(
                f"the tooth FWHM, periodicity_hz / finesse, must be >= {MIN_TOOTH_FWHM_HZ:g} "
                f"Hz, got {self.tooth_fwhm_hz:g}")
        points = self._grid_size  # a float, so a huge grid compares instead of overflowing int()
        if not points <= MAX_COMB_GRID_POINTS:
            raise InvalidArgumentError(
                f"the comb needs {points:.0f} grid points ({_GRID_PER_TOOTH:g} per tooth "
                f"FWHM over the width), more than the {MAX_COMB_GRID_POINTS} allowed; "
                f"raise periodicity_hz or lower finesse or width_hz")
        if points * self.n_teeth > MAX_COMB_BUILD_WORK:
            raise InvalidArgumentError(
                f"building the comb adds {self.n_teeth} teeth over {points:.0f} grid points, "
                f"more than the {MAX_COMB_BUILD_WORK} teeth x points allowed; "
                f"raise periodicity_hz or lower finesse or width_hz")

    @property
    def _grid_size(self) -> float:
        return round(2.0 * self.grid_half_span_hz / (self.tooth_fwhm_hz / _GRID_PER_TOOTH), 0) + 1.0

    @property
    def grid_points(self) -> int:
        """Size of build_comb's grid: _GRID_PER_TOOTH points per tooth FWHM,
        4 FWHM past the outermost tooth on each side."""
        return int(self._grid_size)

    @property
    def n_teeth(self) -> int:
        """Teeth at every multiple of the periodicity within +-width/2."""
        return 2 * math.floor(0.5 * self.width_hz / self.periodicity_hz) + 1

    @property
    def grid_half_span_hz(self) -> float:
        """Half-width of build_comb's grid."""
        return 0.5 * self.width_hz + 4.0 * self.tooth_fwhm_hz

    @property
    def tooth_fwhm_hz(self) -> float:
        return self.periodicity_hz / self.finesse

    @property
    def peak_depth(self) -> float:
        return self.optical_depth * self.passes

    @property
    def afc_delay_s(self) -> float:
        return 1.0 / self.periodicity_hz


@dataclass(frozen=True, eq=False, slots=True)
class CombSpectrum:
    """Sampled absorption profile alpha(f) of a comb."""

    freq_hz: np.ndarray
    depth: np.ndarray
    config: CombConfig

    def __post_init__(self):
        for arr in (self.freq_hz, self.depth):
            arr.setflags(write=False)


def _tooth_centers(cfg: CombConfig) -> np.ndarray:
    """Tooth positions: every multiple of the periodicity within +-width/2."""
    n_side = cfg.n_teeth // 2
    return np.arange(-n_side, n_side + 1) * cfg.periodicity_hz


def _tooth_rate(cfg: CombConfig) -> float:
    """c in a tooth's Gaussian exp(-c (f - f0)^2), set by its FWHM."""
    return 4.0 * math.log(2.0) / cfg.tooth_fwhm_hz ** 2


def build_comb(cfg: CombConfig) -> CombSpectrum:
    """Sample the comb: Gaussian teeth of FWHM spacing/finesse on a uniform grid.

    Teeth sit at integer multiples of the periodicity within +-width/2
    (odd count, centered on zero).  The grid has _GRID_PER_TOOTH points per
    tooth FWHM and extends 4 FWHM past the outermost tooth.  The summed
    profile is rescaled so its peak equals optical_depth * passes, then the
    uniform background is added.
    """
    freq = np.linspace(-cfg.grid_half_span_hz, cfg.grid_half_span_hz, cfg.grid_points)
    c = _tooth_rate(cfg)
    depth = np.zeros_like(freq)
    for f0 in _tooth_centers(cfg):
        depth += np.exp(-c * (freq - f0) ** 2)
    depth *= cfg.peak_depth / depth.max()
    depth += cfg.background_depth
    return CombSpectrum(freq, depth, cfg)


def afc_echo_amplitude(comb: CombSpectrum, t: float) -> complex:
    """Normalized Fourier response of the comb at time t (1 at t = 0).

    The echo re-phases when t is a multiple of 1/periodicity; the tooth
    width sets how much amplitude survives there.  This is the sampled
    DFT of the comb, the oracle for the closed forms of echo_trace and
    comb_dephasing_factor; no pipeline calls it.
    """
    if not t >= 0:
        raise InvalidArgumentError(f"t must be >= 0, got {t}")
    phases = np.exp(2j * math.pi * comb.freq_hz * t)
    return complex(np.dot(comb.depth, phases) / comb.depth.sum())


def _grid_step(cfg: CombConfig) -> float:
    """Spacing of build_comb's grid, as np.linspace computes it."""
    return 2.0 * cfg.grid_half_span_hz / (cfg.grid_points - 1)


def _echo_magnitude(cfg: CombConfig, times: np.ndarray, m: int, df: float,
                    total: float) -> np.ndarray:
    """|N(t)| / total for the comb's m-point grid of step df (see echo_trace)."""
    centers = _tooth_centers(cfg)
    teeth = np.cos(2.0 * math.pi * np.multiply.outer(times, centers)).sum(axis=-1)
    envelope = np.exp(-(math.pi * times) ** 2 / _tooth_rate(cfg))
    x = math.pi * df * times
    with np.errstate(divide="ignore", invalid="ignore"):
        pedestal = np.where(x == 0.0, float(m), np.sin(m * x) / np.sin(x))
    b = cfg.background_depth
    return np.abs((total - b * m) * envelope * teeth / centers.size + b * pedestal) / total


def echo_trace(comb: CombSpectrum, times: np.ndarray) -> np.ndarray:
    """|echo amplitude| over an array of times, in closed form.

    With S = depth.sum(), the 2N+1 teeth at n*delta, c = 4 ln2 / FWHM^2,
    the m grid points spaced df and the background b, the comb's Fourier
    sum is

        N(t) = (S - b m) exp(-pi^2 t^2 / c) sum_n cos(2 pi n delta t) / (2N+1)
               + b sin(pi m df t) / sin(pi df t)        (= m at t = 0)

    and the trace is |N(t)| / S, in O(times x teeth).  The pedestal term is
    exact for the symmetric grid.  The tooth term replaces each sampled
    Gaussian's sum by its integral (Poisson summation), which drops two
    terms: the alias images at t - j/df, each at most
    exp(-pi^2 (1/df - |t|)^2 / c), which is e^-2225 at t = 0 and below e^-556
    for |t| <= 1/(2 df) at the fixed _GRID_PER_TOOTH points per FWHM; and
    the tails past the grid edge, 4 FWHM beyond the outermost tooth, at
    most 2^-64 of a tooth.  Both are far below float64 rounding, which is
    all that separates the trace from abs(afc_echo_amplitude): about
    1e-15, at most 1.5e-14 for finesse 1.2-40, and within 4e-15 of a
    long-double evaluation of the sampled DFT.  `comb` must come from
    build_comb; times beyond 1/(2 df) are rejected.
    """
    times = np.asarray(times, dtype=float)
    m = comb.freq_hz.size
    df = (comb.freq_hz[-1] - comb.freq_hz[0]) / (m - 1)
    if times.size and not np.abs(times).max() <= 0.5 / df:
        raise InvalidArgumentError(
            f"echo_trace covers |t| <= {0.5 / df:g} s (half the grid's alias period), "
            f"got {np.abs(times).max():g}")
    return _echo_magnitude(comb.config, times, m, df, comb.depth.sum())


def _depth_total(cfg: CombConfig) -> float:
    """depth.sum() of build_comb's comb, from the config alone.

    Each tooth's Gaussian sums to sqrt(pi/c)/df over the grid (Poisson
    summation, with the dropped terms echo_trace bounds), so the teeth
    total n_teeth sqrt(pi/c)/df before build_comb scales them by
    peak_depth over their sampled maximum.  That maximum lies at a grid
    point next to a tooth centre, so the teeth are summed at those points
    only, at the grid values np.linspace gives.  MAX_COMB_BUILD_WORK keeps
    n_teeth under 820, so that is at most 3 x 820^2 sums (16 MB).
    """
    centers, c = _tooth_centers(cfg), _tooth_rate(cfg)
    m, df, half = cfg.grid_points, _grid_step(cfg), cfg.grid_half_span_hz
    # grid indices next to each tooth; the outermost sit 100 points (4 FWHM)
    # inside the grid's edges, so every neighbour is on the grid
    nearest = np.rint((centers + half) / df)
    freq = np.concatenate([nearest - 1.0, nearest, nearest + 1.0]) * df - half
    gauss = np.subtract.outer(freq, centers)
    gauss *= gauss
    gauss *= -c
    peak = float(np.exp(gauss, out=gauss).sum(axis=1).max())
    tooth_sums = centers.size * math.sqrt(math.pi / c) / df
    return cfg.peak_depth * tooth_sums / peak + cfg.background_depth * m


@functools.lru_cache
def comb_dephasing_factor(cfg: CombConfig) -> float:
    """Intensity fraction surviving tooth-width dephasing at the echo time.

    echo_trace's closed form at t = 1/delta, with the grid size, step and
    depth total of build_comb's comb computed from the config, so no comb
    is sampled; |afc_echo_amplitude|^2 of the sampled comb is its oracle.
    Without a background it is the Gaussian envelope squared,
    exp(-pi^2 / (2 ln2 finesse^2)), up to rounding.  Memoized per config
    (a float an entry): a sweep or a loop over seeds asks for one comb's
    factor at every storage time.
    """
    t = np.array([cfg.afc_delay_s])
    amp = _echo_magnitude(cfg, t, cfg.grid_points, _grid_step(cfg), _depth_total(cfg))
    return float(amp[0]) ** 2


def afc_efficiency(cfg: CombConfig) -> float:
    """Echo efficiency of the comb alone (absorption factor x dephasing factor)."""
    d_eff = cfg.peak_depth / cfg.finesse
    absorption = d_eff ** 2 * math.exp(-d_eff) * math.exp(-cfg.background_depth)
    return absorption * comb_dephasing_factor(cfg)


@dataclass(frozen=True, slots=True)
class MemoryModel:
    """The efficiency chain's own factors; this is the config's memory section.

    conversion_efficiency is the optical/spin transfer per control pulse
    (applied twice); write_stage is the lumped probability that an input
    photon becomes a spin-wave excitation (absorption capture x transfer,
    unsplit because only the product is measured).  spin_decay_tau_s and
    spin_decay_exponent, given together or not at all, set the fitted
    stretched-exponential intensity decay exp(-(t/tau)^exponent): a
    calibration artifact that soaks up the measured efficiency-vs-storage-
    time decay the ideal chain does not model (labeled as fitted in outputs).
    """

    conversion_efficiency: float = 0.5
    write_stage: float = 0.5
    readout_loss: float = 0.0
    spin_decay_tau_s: float | None = None
    spin_decay_exponent: float | None = None

    def __post_init__(self):
        for name in ("conversion_efficiency", "write_stage", "readout_loss"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0, 1], got {v}")
        if (self.spin_decay_tau_s is None) != (self.spin_decay_exponent is None):
            raise InvalidArgumentError(
                "spin_decay_tau_s and spin_decay_exponent must be given together")
        for name in ("spin_decay_tau_s", "spin_decay_exponent"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise InvalidArgumentError(f"{name} must be > 0, got {v}")

    @property
    def spin_decay_fitted(self) -> bool:
        return self.spin_decay_tau_s is not None

    def decay_factor(self, t_s: float) -> float:
        """The fitted decay at storage time t_s; 1 when none is fitted."""
        if not self.spin_decay_fitted:
            return 1.0
        try:
            return math.exp(-((t_s / self.spin_decay_tau_s) ** self.spin_decay_exponent))
        except OverflowError:  # (t/tau)^exponent past the float range: nothing survives
            return 0.0


@functools.lru_cache(maxsize=_FIDELITY_MEMO_SIZE)
def _rephasing_amplitude(line: DetuningDistribution, seq: DDSequence, seed: int) -> float:
    """rephasing_fidelity of seq over the line's stratified _CHAIN_SPINS-spin
    grid, memoized per (line, sequence, seed), one float an entry."""
    det, w = grid_ensemble(line, _CHAIN_SPINS)
    return rephasing_fidelity(seq, det, w, seed=seed)


def memory_efficiency(model: MemoryModel, comb: CombConfig, spin_line: DetuningDistribution,
                      sequence_kind: str | None, t_s: float, pulse: PulseSpec | None = None,
                      seed: int = 0) -> float:
    """End-to-end probability of retrieving an input photon after storage.

    eta = eta_afc(comb) * eta_c^2 * |spin amplitude(t_s)|^2
          * fitted decay(t_s) * (1 - readout_loss)

    model holds the chain's own factors; the comb, the spin line and the
    decoupling sequence kind come from their own config sections.  Without a
    sequence (kind None) the spin amplitude is the closed-form inhomogeneous
    envelope of spin_line at t_s; with one it is the simulated rephasing
    fidelity over a stratified grid of 4096 spins (deterministic).

    That fidelity is memoized per process (at most _FIDELITY_MEMO_SIZE
    entries), keyed by the line (spin_line's shape and fwhm_hz, so an
    ensemble section's n_spins stays out), the sequence build_sequence
    gives for the kind, t_s and pulse, and the seed when the pulse has
    jitter, which the seed draws (0 otherwise, as no seed changes the
    value): fig2b, fig2c and a sweep's rows share what they ask for again,
    as does a loop over seeds with a jitter-free pulse.  The line, the
    sequence and its pulse refuse numbers other than Python ints and floats
    where they are built (errors.check_numbers), so equal keys compute the
    same bits.
    """
    if not t_s >= 0:
        raise InvalidArgumentError(f"t_s must be >= 0, got {t_s}")
    eta = afc_efficiency(comb) * model.conversion_efficiency ** 2
    if sequence_kind is None:
        amp = dephasing_envelope(spin_line, t_s)
    else:
        seq = build_sequence(sequence_kind, t_s, pulse)
        amp = _rephasing_amplitude(DetuningDistribution(spin_line.shape, spin_line.fwhm_hz),
                                   seq, seed if seq.pulse.jitter_sd > 0 else 0)
    return eta * amp ** 2 * model.decay_factor(t_s) * (1.0 - model.readout_loss)


def spinwave_excitation(mu_in: float, model: MemoryModel) -> float:
    """Mean spin-wave excitation created by a mean input photon number.

    Linear: mu_in times the lumped write-stage probability.
    """
    if not mu_in >= 0:
        raise InvalidArgumentError(f"mu_in must be >= 0, got {mu_in}")
    return mu_in * model.write_stage


@dataclass(frozen=True, slots=True)
class ModesConfig:
    """Temporal modes stored in one cycle; this is the config's modes section.

    n_modes input modes of mode_duration_s each enter one after another;
    dead_time_fraction of the AFC delay is lost to the control pulses.
    """

    n_modes: int = 5
    mode_duration_s: float = 1.5e-6
    dead_time_fraction: float = 0.2

    def __post_init__(self):
        check_count("n_modes", self.n_modes, maximum=MAX_MODES)
        if not self.mode_duration_s > 0:
            raise InvalidArgumentError(f"mode_duration_s must be > 0, got {self.mode_duration_s}")
        if not 0.0 <= self.dead_time_fraction < 1.0:
            raise InvalidArgumentError(
                f"dead_time_fraction must be in [0, 1), got {self.dead_time_fraction}")


@dataclass(frozen=True, slots=True)
class MemoryTimeline:
    """Input/output schedule; every mode is stored for exactly 1/delta + t_s."""

    afc_delay_s: float
    t_s_s: float
    total_s: float
    mode_slots: tuple[tuple[float, float], ...]


def memory_timeline(modes: ModesConfig, delta_hz: float, t_s: float) -> MemoryTimeline:
    """Schedule the modes' sequential inputs through one storage cycle.

    Mode k enters at k * mode_duration and exits exactly one total storage
    time (1/delta + t_s) later.  The usable input window is the AFC delay
    minus the control-pulse dead time.

    Raises
    ------
    CapacityError
        If n_modes * mode_duration exceeds the usable window.
    """
    if not delta_hz > 0:
        raise InvalidArgumentError(f"delta_hz must be > 0, got {delta_hz}")
    if not t_s >= 0:
        raise InvalidArgumentError(f"t_s must be >= 0, got {t_s}")
    afc_delay = 1.0 / delta_hz
    usable = afc_delay * (1.0 - modes.dead_time_fraction)
    needed = modes.n_modes * modes.mode_duration_s
    if needed > usable:
        raise CapacityError(
            f"usable input window exceeded: n_modes * mode_duration = {needed:g} s "
            f"> (1/delta) * (1 - dead_time_fraction) = {usable:g} s")
    total = afc_delay + t_s
    slots = tuple((k * modes.mode_duration_s, k * modes.mode_duration_s + total)
                  for k in range(modes.n_modes))
    return MemoryTimeline(afc_delay, t_s, total, slots)
