"""Experiment configuration: strict parsing, presets, validation.

Configs are nested key-value documents (JSON).  Unknown keys are rejected,
and every value must have its field's type: a number, an integer, a string,
or a list of one of these.  A boolean is none of them, and a number must be
finite as a float (NaN, infinities, huge integers fail, in lists too).

Each section checks itself once, when it is built, by building the domain
object it stands for, so every bound lives in one place: the comb, memory
and modes sections are afc.CombConfig, afc.MemoryModel and afc.ModesConfig
themselves, the noise and detection sections are detection.NoiseModel and
detection.DetectionConfig, the pulse section is a PulseSpec with its own
default error, the ensemble section extends DetuningDistribution, and the
adiabatic section builds AdiabaticPulseSpec.  validate_config adds the
top-level pipeline, format and seed, and the bounds that span two sections:
the random-phase work, and for a multimode run its histogram bins and
whether its modes fit the comb's input window.  All violations are
reported, not only the first.  Presets are data files under
afcmem/presets; a config may name one and override any subset of its
fields.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .afc import CombConfig, MemoryModel, ModesConfig, memory_timeline
from .detection import MAX_GATE_BINS, DetectionConfig, NoiseModel
from .ensemble import DetuningDistribution
from .errors import CapacityError, ConfigError, InvalidArgumentError, check_count
from .pulses import AdiabaticPulseSpec, PulseSpec
from .sequences import MAX_STORAGE_TIME_S, SEQUENCE_KINDS

SCHEMA_VERSION = 1

PIPELINES = ("single_mode", "multimode", "thermalization", "sweep", "random_phase")
FORMATS = ("csv", "json")

# Output directory may be overridden by this environment variable only.
OUTPUT_DIR_ENV = "AFCMEM_OUT"

# Largest counts that size arrays.  Each keeps the peak memory its count adds
# to a run under 170 MiB, at the cost per unit measured with tracemalloc:
# 138.2 bytes per spin at 2^16 spins (random_phase, while one kind's SU(2)
# maps (a, b) are composed; 144 with jittered pulses, whose spinors are
# stepped; 10 on thermalization), 290 per thermalization sequence (fig1d) and
# 428 per random-phase repetition (four kinds, mostly CSV rows).  Not yet
# inside it: random_phase with pulse.rabi_hz set costs 216 bytes a spin (234
# with jitter), as the pulse's per-spin (a, s) is kept for the call, so 2^20
# spins peak at 216-234 MiB.  The sections that are domain classes bound
# their own counts: afc.MAX_MODES and detection.MAX_GATE_BINS.
MAX_SPINS = 2 ** 20
MAX_THERMALIZATION_SEQUENCES = 2 ** 19
MAX_RANDOM_PHASE_REPETITIONS = 2 ** 18

# Most spins x repetitions a random_phase run may ask for: the counts above
# cap its memory, this its time.  Each kind's SU(2) maps are composed once
# and their powers taken in closed form, one (4, chunk) matrix-vector product
# per kind, four repetitions and chunk of at most 10,000 spins; on a 2-vCPU
# host, one BLAS thread, a whole four-kind run took 2.2 ns per spin and
# repetition at 2^13 x 2^13, 2.6 at 2^16 x 2^10 and 18 at 2^20 x 2^6 (most
# of it sampling the spins and composing maps that outgrow the cache), so
# 0.15-1.2 s at the bound.  A jittered pulse steps each spin's spinor in every
# repetition instead, reusing its half-gap phases across them, at about 0.35
# us per spin and repetition on 10k spins (0.66 us on 2k spins, and 1.6 us on
# 10k with rabi_hz, which rebuilds each jittered pulse's per-spin parameters).
MAX_RANDOM_PHASE_WORK = 2 ** 26

@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation violation: where it is and what is wrong."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


@dataclass(frozen=True, slots=True)
class EnsembleSection(DetuningDistribution):
    """The spin line plus the Monte Carlo ensemble size."""

    n_spins: int = 10000

    def __post_init__(self):
        DetuningDistribution.__post_init__(self)  # slots=True rebuilds the class: no bare super()
        check_count("n_spins", self.n_spins, maximum=MAX_SPINS)

    def to_domain(self) -> DetuningDistribution:
        return DetuningDistribution(self.shape, self.fwhm_hz)


@dataclass(frozen=True, slots=True)
class PulseSection(PulseSpec):
    """The pi pulse of the run, with a 1% systematic angle error by default."""

    systematic_error: float = 0.01

    def to_domain(self) -> PulseSpec:
        return PulseSpec(self.systematic_error, self.jitter_sd, self.rabi_hz)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ThermalizationSection:
    n_max: int = 120
    eps_xx: float = 0.036
    eps_xy4: float = 0.002

    def __post_init__(self):
        check_count("n_max", self.n_max, maximum=MAX_THERMALIZATION_SEQUENCES)
        for name in ("eps_xx", "eps_xy4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise InvalidArgumentError(f"{name} must be in [0, 0.5], got {v}")


@dataclass(frozen=True, slots=True)
class RandomPhaseSection:
    n_max: int = 50
    tilt: float = 0.1
    kinds: tuple[str, ...] = ("xx", "xy4", "xy8", "kdd")

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        check_count("n_max", self.n_max, maximum=MAX_RANDOM_PHASE_REPETITIONS)
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


@dataclass(frozen=True, slots=True)
class SweepSection:
    t_s_values_s: tuple[float, ...] = (0.25e-3, 0.5e-3, 0.75e-3, 1.0e-3, 1.25e-3, 1.5e-3)

    def __post_init__(self):
        object.__setattr__(self, "t_s_values_s", tuple(float(v) for v in self.t_s_values_s))
        if not self.t_s_values_s:
            raise InvalidArgumentError("t_s_values_s must not be empty")
        if not all(0 < v <= MAX_STORAGE_TIME_S for v in self.t_s_values_s):
            raise InvalidArgumentError(
                f"t_s_values_s must all be in (0, {MAX_STORAGE_TIME_S:g}]")


@dataclass(frozen=True, slots=True)
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
    memory: MemoryModel = field(default_factory=MemoryModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    thermalization: ThermalizationSection = field(default_factory=ThermalizationSection)
    modes: ModesConfig = field(default_factory=ModesConfig)
    sweep: SweepSection = field(default_factory=SweepSection)
    random_phase: RandomPhaseSection = field(default_factory=RandomPhaseSection)


# One default instance per section, shared by every config that does not set
# the section: the sections are frozen, so a kept config holds only its own.
_DEFAULTS = {f.name: f.default_factory() for f in dataclasses.fields(ExperimentConfig)
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


def _build_section(path: str, data, diags: list[Diagnostic]):
    """The section built from data, or the shared default when data is None or
    the section has a violation (which diags then holds)."""
    cls = type(_DEFAULTS[path])
    if data is not None and not isinstance(data, dict):
        diags.append(Diagnostic(path, f"expected an object, got {type(data).__name__}"))
    elif data is not None:
        try:
            return cls(**_typed_kwargs(cls, data, path, diags))
        except InvalidArgumentError as exc:
            diags.append(Diagnostic(path, str(exc)))
    return _DEFAULTS[path]


def parse_config(data: dict) -> tuple[ExperimentConfig, list[Diagnostic]]:
    """Build an ExperimentConfig from a dict, collecting all diagnostics."""
    diags: list[Diagnostic] = []
    if not isinstance(data, dict):
        return ExperimentConfig(), [Diagnostic("<root>", "config must be an object")]
    scalars = {k: v for k, v in data.items() if k not in _DEFAULTS}
    kwargs = _typed_kwargs(ExperimentConfig, scalars, "", diags)
    for key, value in data.items():
        if key in _DEFAULTS:
            kwargs[key] = _build_section(key, value, diags)
    return ExperimentConfig(**{**_DEFAULTS, **kwargs}), diags


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """Violations of the top-level fields, of the random-phase work, and of a
    multimode run's histogram bins and input window, which each span two
    sections or more (each section checks itself)."""
    diags: list[Diagnostic] = []
    if cfg.pipeline not in PIPELINES:
        diags.append(Diagnostic("pipeline", f"must be one of {PIPELINES}, got {cfg.pipeline!r}"))
    if cfg.format not in FORMATS:
        diags.append(Diagnostic("format", f"must be one of {FORMATS}, got {cfg.format!r}"))
    try:
        check_count("seed", cfg.seed, minimum=0)
    except InvalidArgumentError as exc:
        diags.append(Diagnostic("seed", str(exc)))
    n_spins, n_max = cfg.ensemble.n_spins, cfg.random_phase.n_max
    if cfg.pipeline == "random_phase" and n_spins * n_max > MAX_RANDOM_PHASE_WORK:
        diags.append(Diagnostic("random_phase", (
            f"{n_spins} spins x {n_max} repetitions is more than the "
            f"{MAX_RANDOM_PHASE_WORK} allowed; lower ensemble.n_spins or n_max")))
    if cfg.pipeline == "multimode":
        # each mode keeps its own histograms, so the bins' memory bound is on the product
        n_modes, n_bins = cfg.modes.n_modes, cfg.detection.gate_bins
        if n_modes * n_bins > MAX_GATE_BINS:
            diags.append(Diagnostic("modes", (
                f"{n_modes} modes x {n_bins} gate bins is more than the {MAX_GATE_BINS} "
                f"allowed; lower modes.n_modes or detection.gate_bins")))
        try:
            memory_timeline(cfg.modes, cfg.comb.periodicity_hz, cfg.sequence.t_s_s)
        except CapacityError as exc:
            diags.append(Diagnostic("modes", str(exc)))
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


@functools.lru_cache(maxsize=16)
def _parsed_preset(name: str) -> dict | None:
    """The preset file parsed, once per process; None when there is none."""
    path = resources.files("afcmem.presets") / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def load_preset(name: str) -> dict:
    """Raw preset document {name, pipeline, notes, config, fixtures?}.

    Each call returns a deep copy of the document parsed once per process.
    Its strings and numbers are immutable and not copied, so every config
    built from a preset shares them: a kept config holds only its own
    structure.
    """
    doc = _parsed_preset(name)
    if doc is None:
        raise ConfigError([Diagnostic("preset", f"unknown preset {name!r}; "
                                      f"valid presets: {', '.join(preset_names())}")])
    return copy.deepcopy(doc)


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
