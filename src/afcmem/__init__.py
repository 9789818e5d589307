"""Simulator of an atomic-frequency-comb spin-wave optical memory under
dynamical-decoupling control: spin-line dephasing, pulse-error budgets,
comb echo efficiency, photon-counting noise, and the derived figures of
merit, with reproducible seeded experiment presets."""

from .afc import (CombConfig, CombSpectrum, MemoryModel, MemoryTimeline, ModesConfig,
                  afc_echo_amplitude, afc_efficiency, build_comb, comb_dephasing_factor,
                  echo_trace, memory_efficiency, memory_timeline, spinwave_excitation)
from .detection import (DetectionConfig, FidelityResult, NoiseModel, QuantumWindow,
                        RunStatistics, ValueWithError, mu1, noise_probability, qubit_fidelity,
                        quantum_regime_window, simulate_run, snr_analytic)
from .ensemble import (DetuningDistribution, SpinEnsemble, coherence_1e_time, dephasing_envelope,
                       free_evolve, grid_ensemble, sample_detunings)
from .errors import (AfcmemError, CapacityError, ConfigError, DomainError,
                     IntegrationAccuracyError, InvalidArgumentError)
from .pulses import (AdiabaticPulseSpec, IntegratorConfig, InversionProfile, PulseSpec,
                     integrate_bloch_many, inversion_error_profile, rotate_states)
from .sequences import (DDSequence, ThermalizationCurve, apply_sequence, build_sequence,
                        calibrate_systematic_error, random_phase_population_study,
                        rephasing_fidelity, sequence_population_error, thermalization_curve,
                        thermalization_monte_carlo, thermalization_monte_carlo_uniform)

__version__ = "0.1.0"
