"""Simulator of an atomic-frequency-comb spin-wave optical memory under
dynamical-decoupling control: spin-line dephasing, pulse-error budgets,
comb echo efficiency, photon-counting noise, and the derived figures of
merit, with reproducible seeded experiment presets."""

from .afc import (CombConfig, CombSpectrum, MemoryModel, MemoryTimeline, SpinDecayModel,
                  afc_echo_amplitude, afc_efficiency, build_comb, comb_dephasing_factor,
                  echo_trace, find_echo_peak, memory_efficiency, memory_timeline,
                  spinwave_excitation)
from .detection import (FidelityResult, GateConfig, NoiseModel, QuantumWindow, RunStatistics,
                        ValueWithError, mu1, noise_probability, qubit_fidelity,
                        quantum_regime_window, simulate_run, snr_analytic)
from .ensemble import (DetuningDistribution, SpinEnsemble, coherence_1e_time,
                       collective_coherence, dephasing_envelope, free_evolve, grid_ensemble,
                       sample_detunings, with_transverse_states)
from .errors import (AfcmemError, CapacityError, ConfigError, DomainError,
                     IntegrationAccuracyError, InvalidArgumentError)
from .pulses import (AdiabaticPulseSpec, IntegratorConfig, InversionProfile, PulseSpec,
                     adiabaticity, integrate_bloch, integrate_bloch_many,
                     inversion_error_profile, landau_zener_error, rotate_states)
from .sequences import (DDSequence, PrecisionReport, RandomPhaseStudy, SequenceStep,
                        ThermalizationCurve, apply_sequence, build_sequence,
                        calibrate_systematic_error, precision_requirement,
                        random_phase_population_study, rephasing_fidelity,
                        sequence_population_error, thermalization_curve,
                        thermalization_monte_carlo, thermalization_monte_carlo_uniform)

__version__ = "0.1.0"
