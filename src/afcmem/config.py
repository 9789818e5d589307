"""Experiment configuration: strict parsing, presets, validation.

Configs are nested key-value documents (JSON).  Unknown keys are rejected,
scalar values must match their field's type (a number, an integer or a
string; a boolean is none of these), and validation returns the full list
of violations rather than stopping at the first.  Presets are shipped as data files under afcmem/presets; an
explicit config may name a preset and override any subset of its fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .afc import CombConfig, MemoryModel, SpinDecayModel
from .detection import GateConfig, NoiseModel, noise_probability
from .ensemble import DetuningDistribution
from .errors import ConfigError, InvalidArgumentError
from .pulses import PULSE_ENVELOPES, AdiabaticPulseSpec, PulseSpec
from .sequences import SEQUENCE_KINDS

SCHEMA_VERSION = 1

PIPELINES = ("single_mode", "multimode", "thermalization", "sweep", "random_phase")
FORMATS = ("csv", "json")

# Output directory may be overridden by this environment variable only.
OUTPUT_DIR_ENV = "AFCMEM_OUT"


@dataclass(frozen=True)
class Diagnostic:
    """One validation violation: where it is and what is wrong."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a count that is not an integer >= minimum (booleans included)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class EnsembleSection:
    shape: str = "gaussian"
    fwhm_hz: float = 27e3
    n_spins: int = 10000

    def to_domain(self) -> DetuningDistribution:
        _check_count("n_spins", self.n_spins)
        return DetuningDistribution(self.shape, self.fwhm_hz)


@dataclass(frozen=True)
class PulseSection:
    systematic_error: float = 0.01
    jitter_sd: float = 0.0
    rabi_hz: float | None = None

    def to_domain(self) -> PulseSpec:
        return PulseSpec(systematic_error=self.systematic_error,
                         jitter_sd=self.jitter_sd, rabi_hz=self.rabi_hz)


@dataclass(frozen=True)
class AdiabaticSection:
    peak_rabi_hz: float = 30e3
    chirp_span_hz: float = 200e3
    duration_s: float = 500e-6
    envelope: str = "sech"

    def to_domain(self) -> AdiabaticPulseSpec:
        return AdiabaticPulseSpec(self.peak_rabi_hz, self.chirp_span_hz,
                                  self.duration_s, self.envelope)


@dataclass(frozen=True)
class SequenceSection:
    kind: str | None = "xy4"
    t_s_s: float = 0.5e-3

    def validate(self):
        if self.kind is not None and self.kind not in SEQUENCE_KINDS:
            raise InvalidArgumentError(
                f"kind must be null or one of {SEQUENCE_KINDS}, got {self.kind!r}")
        if not self.t_s_s > 0:
            raise InvalidArgumentError(f"t_s_s must be > 0, got {self.t_s_s}")


@dataclass(frozen=True)
class CombSection:
    periodicity_hz: float = 100e3
    finesse: float = 4.0
    width_hz: float = 2e6
    optical_depth: float = 2.6
    passes: int = 2
    background_depth: float = 0.0

    def to_domain(self) -> CombConfig:
        return CombConfig(self.periodicity_hz, self.finesse, self.width_hz,
                          self.optical_depth, self.passes, self.background_depth)


@dataclass(frozen=True)
class MemorySection:
    conversion_efficiency: float = 0.5
    write_stage: float = 0.5
    readout_loss: float = 0.0
    spin_decay_tau_s: float | None = None
    spin_decay_exponent: float | None = None

    def decay(self) -> SpinDecayModel | None:
        if self.spin_decay_tau_s is None and self.spin_decay_exponent is None:
            return None
        if self.spin_decay_tau_s is None or self.spin_decay_exponent is None:
            raise InvalidArgumentError(
                "spin_decay_tau_s and spin_decay_exponent must be given together")
        return SpinDecayModel(self.spin_decay_tau_s, self.spin_decay_exponent)


@dataclass(frozen=True)
class NoiseSection:
    optical_readout_noise: float = 5e-3
    residual_coupling: float = 1.0
    detector_dark: float = 0.0
    excess: float = 0.0
    residual_population: float = 0.002

    def to_domain(self) -> NoiseModel:
        return NoiseModel(self.optical_readout_noise, self.residual_coupling,
                          self.detector_dark, self.excess)

    def validate(self):
        """The noise budget p_n must be a probability; an out-of-range
        residual_population is reported on its own by validate_config."""
        model = self.to_domain()
        if 0.0 <= self.residual_population <= 0.5:
            noise_probability(model, self.residual_population)


@dataclass(frozen=True)
class DetectionSection:
    mu: float = 2.0
    trials: int = 100000
    gate_duration_s: float = 2e-6
    gate_bins: int = 40

    def gate(self) -> GateConfig:
        return GateConfig(self.gate_duration_s, self.gate_bins)

    def validate(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise InvalidArgumentError(f"mu must be finite and >= 0, got {self.mu}")
        _check_count("trials", self.trials)
        self.gate()


@dataclass(frozen=True)
class ThermalizationSection:
    n_max: int = 120
    eps_xx: float = 0.036
    eps_xy4: float = 0.002

    def validate(self):
        _check_count("n_max", self.n_max)
        for name in ("eps_xx", "eps_xy4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise InvalidArgumentError(f"{name} must be in [0, 0.5], got {v}")


@dataclass(frozen=True)
class ModesSection:
    n_modes: int = 5
    mode_duration_s: float = 1.5e-6
    dead_time_fraction: float = 0.2


@dataclass(frozen=True)
class RandomPhaseSection:
    n_max: int = 50
    tilt: float = 0.1
    kinds: tuple[str, ...] = ("xx", "xy4", "xy8", "kdd")

    def __post_init__(self):
        if isinstance(self.kinds, str):
            raise InvalidArgumentError(f"kinds must be a list of sequence kinds, "
                                       f"got the string {self.kinds!r}")
        object.__setattr__(self, "kinds", tuple(self.kinds))

    def validate(self):
        _check_count("n_max", self.n_max)
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

    def validate(self):
        if len(self.t_s_values_s) < 1:
            raise InvalidArgumentError("t_s_values_s must not be empty")
        if any(v <= 0 for v in self.t_s_values_s):
            raise InvalidArgumentError("t_s_values_s must all be > 0")


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
    comb: CombSection = field(default_factory=CombSection)
    memory: MemorySection = field(default_factory=MemorySection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    thermalization: ThermalizationSection = field(default_factory=ThermalizationSection)
    modes: ModesSection = field(default_factory=ModesSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    random_phase: RandomPhaseSection = field(default_factory=RandomPhaseSection)

    def memory_model(self) -> MemoryModel:
        return MemoryModel(comb=self.comb.to_domain(),
                           conversion_efficiency=self.memory.conversion_efficiency,
                           spin_line=self.ensemble.to_domain(),
                           sequence_kind=self.sequence.kind,
                           readout_loss=self.memory.readout_loss,
                           write_stage=self.memory.write_stage,
                           spin_decay=self.memory.decay())


_SECTIONS = {
    "ensemble": EnsembleSection,
    "pulse": PulseSection,
    "adiabatic": AdiabaticSection,
    "sequence": SequenceSection,
    "comb": CombSection,
    "memory": MemorySection,
    "noise": NoiseSection,
    "detection": DetectionSection,
    "thermalization": ThermalizationSection,
    "modes": ModesSection,
    "sweep": SweepSection,
    "random_phase": RandomPhaseSection,
}


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
    allowed = _FIELD_TYPES.get(annotation)
    return allowed is None or (isinstance(value, allowed) and not isinstance(value, bool))


def _typed_kwargs(cls, data: dict, path: str, diags: list[Diagnostic]) -> dict:
    """Keep the known keys of data whose values have their field's type."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            diags.append(Diagnostic(f"{path}.{key}" if path else key, "unknown key"))
        elif not _has_field_type(types[key], value):
            diags.append(Diagnostic(f"{path}.{key}" if path else key,
                                    f"expected {types[key]}, got {type(value).__name__}"))
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
    except (InvalidArgumentError, TypeError, ValueError) as exc:
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
    try:
        cfg = ExperimentConfig(**kwargs)
    except (InvalidArgumentError, TypeError, ValueError) as exc:
        diags.append(Diagnostic("<root>", str(exc)))
        cfg = ExperimentConfig()
    return cfg, diags


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """All semantic violations in a parsed config; empty means runnable."""
    diags: list[Diagnostic] = []
    if cfg.pipeline not in PIPELINES:
        diags.append(Diagnostic("pipeline", f"must be one of {PIPELINES}, got {cfg.pipeline!r}"))
    if cfg.format not in FORMATS:
        diags.append(Diagnostic("format", f"must be one of {FORMATS}, got {cfg.format!r}"))
    checks = [
        ("seed", lambda: _check_count("seed", cfg.seed, minimum=0)),
        ("ensemble", cfg.ensemble.to_domain),
        ("pulse", cfg.pulse.to_domain),
        ("adiabatic", cfg.adiabatic.to_domain),
        ("sequence", cfg.sequence.validate),
        ("comb", cfg.comb.to_domain),
        ("memory.spin_decay", cfg.memory.decay),
        ("noise", cfg.noise.validate),
        ("detection", cfg.detection.validate),
        ("thermalization", cfg.thermalization.validate),
        ("sweep", cfg.sweep.validate),
        ("random_phase", cfg.random_phase.validate),
        ("modes", lambda: _check_count("n_modes", cfg.modes.n_modes)),
    ]
    for path, check in checks:
        try:
            check()
        except (InvalidArgumentError, TypeError, ValueError) as exc:
            diags.append(Diagnostic(path, str(exc)))
    for name in ("conversion_efficiency", "write_stage", "readout_loss"):
        v = getattr(cfg.memory, name)
        if not 0.0 <= v <= 1.0:
            diags.append(Diagnostic(f"memory.{name}", f"must be in [0, 1], got {v}"))
    if not 0.0 <= cfg.noise.residual_population <= 0.5:
        diags.append(Diagnostic("noise.residual_population",
                                f"must be in [0, 0.5], got {cfg.noise.residual_population}"))
    if not 0.0 <= cfg.modes.dead_time_fraction < 1.0:
        diags.append(Diagnostic("modes.dead_time_fraction",
                                f"must be in [0, 1), got {cfg.modes.dead_time_fraction}"))
    if not cfg.modes.mode_duration_s > 0:
        diags.append(Diagnostic("modes.mode_duration_s",
                                f"must be > 0, got {cfg.modes.mode_duration_s}"))
    return diags


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten a config back to its document form (for self-describing reports)."""
    return dataclasses.asdict(cfg)


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
    preset name.  An explicit config file may carry a
    "preset" key whose document is used as the base layer.  Raises
    ConfigError with the full diagnostic list on any violation.
    """
    fixtures: dict = {}
    path = Path(target)
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
        base: dict = {}
        preset_name = doc.pop("preset", None)
        if preset_name is not None:
            preset = load_preset(preset_name)
            base = preset.get("config", {})
            base["pipeline"] = preset.get("pipeline", "single_mode")
            fixtures = preset.get("fixtures", {})
        data = _deep_merge(base, doc)
    else:
        preset = load_preset(target)
        data = dict(preset.get("config", {}))
        data["pipeline"] = preset.get("pipeline", "single_mode")
        fixtures = preset.get("fixtures", {})
    if overrides:
        data = _deep_merge(data, overrides)
    cfg, diags = parse_config(data)
    diags.extend(validate_config(cfg))
    if diags:
        raise ConfigError(diags)
    return cfg, fixtures
