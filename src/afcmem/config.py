"""Experiment configuration: strict parsing, presets, validation.

Configs are nested key-value documents (JSON).  Unknown keys are rejected,
and every value must have its field's type: a number, an integer, a string,
or a list of one of these.  A boolean is none of them, and a number must be
finite as a float (NaN, infinities, huge integers fail, in lists too).

Each section checks itself once, when it is built, by building the domain
object it stands for, so every bound lives in one place: the comb section
is afc.CombConfig itself, the ensemble and noise sections extend
DetuningDistribution and NoiseModel, and the pulse, adiabatic, memory and
detection sections build PulseSpec, AdiabaticPulseSpec, MemoryModel and
GateConfig.  validate_config adds the top-level pipeline, format and seed,
and the bounds that span two sections: the random-phase work and the
multimode histogram bins.  All violations are reported, not only the
first.  Presets are data files under afcmem/presets; a config may name one
and override any subset of its fields.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .afc import CombConfig, MemoryModel, SpinDecayModel
from .detection import MAX_GATE_BINS, GateConfig, NoiseModel, noise_probability
from .ensemble import DetuningDistribution
from .errors import ConfigError, InvalidArgumentError
from .pulses import AdiabaticPulseSpec, PulseSpec
from .sequences import SEQUENCE_KINDS

SCHEMA_VERSION = 1

PIPELINES = ("single_mode", "multimode", "thermalization", "sweep", "random_phase")
FORMATS = ("csv", "json")

# Output directory may be overridden by this environment variable only.
OUTPUT_DIR_ENV = "AFCMEM_OUT"

# Largest counts that size arrays.  Each keeps the peak memory its count adds
# to a run under 160 MiB, at the cost per unit measured with tracemalloc:
# 153 bytes per spin at 2^20 spins (random_phase, a 152.7 MiB peak; 164 at
# 2^16, where fixed costs weigh more; 10 on thermalization), 290 per
# thermalization sequence (fig1d), 530 per random-phase repetition (four
# kinds) and 9.3 KB per mode (fig2c, 40 bins), mostly arrays and CSV rows.
# Each mode is also one counting Monte Carlo: about 0.4 ms at fig2c's
# 100,000 trials on a 2-vCPU host, so the most modes take about 7 s.
MAX_SPINS = 2 ** 20
MAX_THERMALIZATION_SEQUENCES = 2 ** 19
MAX_RANDOM_PHASE_REPETITIONS = 2 ** 18
MAX_MODES = 2 ** 14

# Most spins x repetitions a random_phase run may ask for: the counts above
# cap its memory, this its time.  Each repetition applies every kind's
# composed (3, 3, n) maps once, one einsum per kind; on a 2-vCPU host a whole
# four-kind run took 37 ns per spin and repetition at 2^13 x 2^13, 61 at
# 2^16 x 2^10 and 163-176 at 2^20 x 2^6 (maps that outgrow the cache, plus
# about 3.5 s to sample the spins and compose the maps), so 10.9-11.8 s at
# the bound.  A jittered pulse steps the sequence in every repetition
# instead, reusing each wait's cos/sin across them, at about 0.6-0.8 us per
# spin and repetition on 10k spins (5.4-5.8 us on 2k spins and 8.5 us on 10k
# with rabi_hz, which rebuilds every pulse's per-spin stack).
MAX_RANDOM_PHASE_WORK = 2 ** 26

# Longest storage time: far above any physical one (ms to hours), and low
# enough that the precession phase 2 pi detuning t and the envelope exponent
# (pi fwhm t)^2 stay finite for every line up to ensemble.MAX_FWHM_HZ.
MAX_STORAGE_TIME_S = 1e12


@dataclass(frozen=True)
class Diagnostic:
    """One validation violation: where it is and what is wrong."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


def _check_count(name: str, value, minimum: int = 1, maximum: int | None = None) -> None:
    """Reject a count that is not an integer in [minimum, maximum] (booleans included)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise InvalidArgumentError(f"{name} must be <= {maximum}, got {value}")


@dataclass(frozen=True)
class EnsembleSection(DetuningDistribution):
    """The spin line plus the Monte Carlo ensemble size."""

    n_spins: int = 10000

    def __post_init__(self):
        super().__post_init__()
        _check_count("n_spins", self.n_spins, maximum=MAX_SPINS)

    def to_domain(self) -> DetuningDistribution:
        return DetuningDistribution(self.shape, self.fwhm_hz)


@dataclass(frozen=True)
class PulseSection:
    systematic_error: float = 0.01
    jitter_sd: float = 0.0
    rabi_hz: float | None = None

    def __post_init__(self):
        self.to_domain()

    def to_domain(self) -> PulseSpec:
        return PulseSpec(systematic_error=self.systematic_error,
                         jitter_sd=self.jitter_sd, rabi_hz=self.rabi_hz)


@dataclass(frozen=True)
class AdiabaticSection:
    peak_rabi_hz: float = 30e3
    chirp_span_hz: float = 200e3
    duration_s: float = 500e-6
    envelope: str = "sech"

    def __post_init__(self):
        self.to_domain()

    def to_domain(self) -> AdiabaticPulseSpec:
        return AdiabaticPulseSpec(self.peak_rabi_hz, self.chirp_span_hz,
                                  self.duration_s, self.envelope)


@dataclass(frozen=True)
class SequenceSection:
    kind: str | None = "xy4"
    t_s_s: float = 0.5e-3

    def __post_init__(self):
        if self.kind is not None and self.kind not in SEQUENCE_KINDS:
            raise InvalidArgumentError(
                f"kind must be null or one of {SEQUENCE_KINDS}, got {self.kind!r}")
        if not 0 < self.t_s_s <= MAX_STORAGE_TIME_S:
            raise InvalidArgumentError(
                f"t_s_s must be in (0, {MAX_STORAGE_TIME_S:g}], got {self.t_s_s}")


@dataclass(frozen=True)
class MemorySection:
    conversion_efficiency: float = 0.5
    write_stage: float = 0.5
    readout_loss: float = 0.0
    spin_decay_tau_s: float | None = None
    spin_decay_exponent: float | None = None

    def __post_init__(self):
        self.model()

    def decay(self) -> SpinDecayModel | None:
        if self.spin_decay_tau_s is None and self.spin_decay_exponent is None:
            return None
        if self.spin_decay_tau_s is None or self.spin_decay_exponent is None:
            raise InvalidArgumentError(
                "spin_decay_tau_s and spin_decay_exponent must be given together")
        return SpinDecayModel(self.spin_decay_tau_s, self.spin_decay_exponent)

    def model(self, **parts) -> MemoryModel:
        """The efficiency chain with this section's factors; parts names the rest."""
        return MemoryModel(conversion_efficiency=self.conversion_efficiency,
                           readout_loss=self.readout_loss, write_stage=self.write_stage,
                           spin_decay=self.decay(), **parts)


@dataclass(frozen=True)
class NoiseSection(NoiseModel):
    """The noise model plus the residual spin population it converts."""

    residual_population: float = 0.002

    def __post_init__(self):
        super().__post_init__()
        noise_probability(self, self.residual_population)


@dataclass(frozen=True)
class DetectionSection:
    mu: float = 2.0
    trials: int = 100000
    gate_duration_s: float = 2e-6
    gate_bins: int = 40

    def __post_init__(self):
        if not self.mu >= 0:
            raise InvalidArgumentError(f"mu must be >= 0, got {self.mu}")
        _check_count("trials", self.trials)
        self.gate()

    def gate(self) -> GateConfig:
        return GateConfig(self.gate_duration_s, self.gate_bins)


@dataclass(frozen=True)
class ThermalizationSection:
    n_max: int = 120
    eps_xx: float = 0.036
    eps_xy4: float = 0.002

    def __post_init__(self):
        _check_count("n_max", self.n_max, maximum=MAX_THERMALIZATION_SEQUENCES)
        for name in ("eps_xx", "eps_xy4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise InvalidArgumentError(f"{name} must be in [0, 0.5], got {v}")


@dataclass(frozen=True)
class ModesSection:
    n_modes: int = 5
    mode_duration_s: float = 1.5e-6
    dead_time_fraction: float = 0.2

    def __post_init__(self):
        _check_count("n_modes", self.n_modes, maximum=MAX_MODES)
        if not self.mode_duration_s > 0:
            raise InvalidArgumentError(f"mode_duration_s must be > 0, got {self.mode_duration_s}")
        if not 0.0 <= self.dead_time_fraction < 1.0:
            raise InvalidArgumentError(
                f"dead_time_fraction must be in [0, 1), got {self.dead_time_fraction}")


@dataclass(frozen=True)
class RandomPhaseSection:
    n_max: int = 50
    tilt: float = 0.1
    kinds: tuple[str, ...] = ("xx", "xy4", "xy8", "kdd")

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        _check_count("n_max", self.n_max, maximum=MAX_RANDOM_PHASE_REPETITIONS)
        if not 0.0 < self.tilt < 1.0:
            raise InvalidArgumentError(f"tilt must be in (0, 1), got {self.tilt}")
        if not self.kinds:
            raise InvalidArgumentError("kinds must name at least one sequence kind")
        unknown = [k for k in self.kinds if k not in SEQUENCE_KINDS]
        if unknown:
            raise InvalidArgumentError(f"unknown sequence kinds {unknown}")
        repeated = sorted({k for k in self.kinds if self.kinds.count(k) > 1})
        if repeated:
            raise InvalidArgumentError(f"kinds must not repeat; repeated: {repeated}")


@dataclass(frozen=True)
class SweepSection:
    t_s_values_s: tuple[float, ...] = (0.25e-3, 0.5e-3, 0.75e-3, 1.0e-3, 1.25e-3, 1.5e-3)

    def __post_init__(self):
        object.__setattr__(self, "t_s_values_s", tuple(float(v) for v in self.t_s_values_s))
        if not self.t_s_values_s:
            raise InvalidArgumentError("t_s_values_s must not be empty")
        if not all(0 < v <= MAX_STORAGE_TIME_S for v in self.t_s_values_s):
            raise InvalidArgumentError(
                f"t_s_values_s must all be in (0, {MAX_STORAGE_TIME_S:g}]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible run."""

    pipeline: str = "single_mode"
    seed: int = 12345
    output_dir: str = "results"
    format: str = "csv"
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    pulse: PulseSection = field(default_factory=PulseSection)
    adiabatic: AdiabaticSection = field(default_factory=AdiabaticSection)
    sequence: SequenceSection = field(default_factory=SequenceSection)
    comb: CombConfig = field(default_factory=CombConfig)
    memory: MemorySection = field(default_factory=MemorySection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    thermalization: ThermalizationSection = field(default_factory=ThermalizationSection)
    modes: ModesSection = field(default_factory=ModesSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    random_phase: RandomPhaseSection = field(default_factory=RandomPhaseSection)

    def memory_model(self) -> MemoryModel:
        return self.memory.model(comb=self.comb, spin_line=self.ensemble,
                                 sequence_kind=self.sequence.kind)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
             if f.default_factory is not dataclasses.MISSING}


# JSON value types accepted per scalar field annotation.  A boolean is not a
# number here, although bool subclasses int.
_FIELD_TYPES = {
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "int": (int,),
    "str": (str,),
    "str | None": (str, type(None)),
}


def _has_field_type(annotation: str, value) -> bool:
    """A tuple[T, ...] field takes a list of T; a number must be finite."""
    if annotation.startswith("tuple["):
        item = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, list) and all(_has_field_type(item, v) for v in value)
    if not isinstance(value, _FIELD_TYPES[annotation]) or isinstance(value, bool):
        return False
    # finite as a float: NaN, the infinities and integers past float range fail
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


def _typed_kwargs(cls, data: dict, path: str, diags: list[Diagnostic]) -> dict:
    """Keep the known keys of data whose values have their field's type."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            diags.append(Diagnostic(where, "unknown key"))
        elif not _has_field_type(types[key], value):
            diags.append(Diagnostic(where, f"expected {types[key]}, got {value!r}"))
        else:
            kwargs[key] = value
    return kwargs


def _build_section(cls, data, path: str, diags: list[Diagnostic]):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        diags.append(Diagnostic(path, f"expected an object, got {type(data).__name__}"))
        return cls()
    kwargs = _typed_kwargs(cls, data, path, diags)
    try:
        return cls(**kwargs)
    except InvalidArgumentError as exc:
        diags.append(Diagnostic(path, str(exc)))
        return cls()


def parse_config(data: dict) -> tuple[ExperimentConfig, list[Diagnostic]]:
    """Build an ExperimentConfig from a dict, collecting all diagnostics."""
    diags: list[Diagnostic] = []
    if not isinstance(data, dict):
        return ExperimentConfig(), [Diagnostic("<root>", "config must be an object")]
    scalars = {k: v for k, v in data.items() if k not in _SECTIONS}
    kwargs = _typed_kwargs(ExperimentConfig, scalars, "", diags)
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value, key, diags)
    return ExperimentConfig(**kwargs), diags


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """Violations of the top-level fields, of the random-phase work and of the
    multimode histogram bins, which each span two sections (each section
    checks itself)."""
    diags: list[Diagnostic] = []
    if cfg.pipeline not in PIPELINES:
        diags.append(Diagnostic("pipeline", f"must be one of {PIPELINES}, got {cfg.pipeline!r}"))
    if cfg.format not in FORMATS:
        diags.append(Diagnostic("format", f"must be one of {FORMATS}, got {cfg.format!r}"))
    try:
        _check_count("seed", cfg.seed, minimum=0)
    except InvalidArgumentError as exc:
        diags.append(Diagnostic("seed", str(exc)))
    n_spins, n_max = cfg.ensemble.n_spins, cfg.random_phase.n_max
    if cfg.pipeline == "random_phase" and n_spins * n_max > MAX_RANDOM_PHASE_WORK:
        diags.append(Diagnostic("random_phase", (
            f"{n_spins} spins x {n_max} repetitions is more than the "
            f"{MAX_RANDOM_PHASE_WORK} allowed; lower ensemble.n_spins or n_max")))
    # each mode keeps its own histograms, so the bins' memory bound is on the product
    n_modes, n_bins = cfg.modes.n_modes, cfg.detection.gate_bins
    if cfg.pipeline == "multimode" and n_modes * n_bins > MAX_GATE_BINS:
        diags.append(Diagnostic("modes", (
            f"{n_modes} modes x {n_bins} gate bins is more than the {MAX_GATE_BINS} "
            f"allowed; lower modes.n_modes or detection.gate_bins")))
    return diags


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def preset_names() -> list[str]:
    files = resources.files("afcmem.presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    """Raw preset document {name, pipeline, notes, config, fixtures?}."""
    files = resources.files("afcmem.presets")
    path = files / f"{name}.json"
    if not path.is_file():
        raise ConfigError([Diagnostic("preset", f"unknown preset {name!r}; "
                                      f"valid presets: {', '.join(preset_names())}")])
    return json.loads(path.read_text())


def load_config(target: str, overrides: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """Resolve a preset name or a JSON config path into a validated config.

    Returns (config, fixtures).  A target ending in .json or naming an
    existing file is read as a config; anything else (a directory too) is a
    preset name, read as an empty config naming that preset.  The layers
    merge as preset < config (whose "preset" key names its base) <
    overrides.  Raises ConfigError with the full diagnostic list on any
    violation.
    """
    path = Path(target)
    doc: dict = {"preset": target}
    if path.suffix == ".json" or path.is_file():
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError([Diagnostic("config", f"no such file: {target}")])
        except json.JSONDecodeError as exc:
            raise ConfigError([Diagnostic(f"{target}:{exc.lineno}", exc.msg)])
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([Diagnostic("config", f"cannot read {target}: {exc}")])
        if not isinstance(doc, dict):
            raise ConfigError([Diagnostic("<root>", "config must be an object")])
    data, fixtures = {}, {}
    preset_name = doc.pop("preset", None)
    if preset_name is not None:
        preset = load_preset(preset_name)
        data = dict(preset.get("config", {}), pipeline=preset.get("pipeline", "single_mode"))
        fixtures = preset.get("fixtures", {})
    cfg, diags = parse_config(_deep_merge(_deep_merge(data, doc), overrides or {}))
    diags.extend(validate_config(cfg))
    if diags:
        raise ConfigError(diags)
    return cfg, fixtures
