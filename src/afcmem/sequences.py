"""Dynamical-decoupling sequences and their population-error bookkeeping.

Builders produce timed sequences of waits and inversion pulses over a spin
storage window.  Pulses are placed at the centers of equal refocusing
intervals (half-gaps at both ends), so an n-pulse sequence over T has gaps
[T/2n, T/n, ..., T/n, T/2n].  Population error of a sequence is the
probability mass moved to the |g> pole (z = -1) after one full sequence
applied to a spin prepared in |s> (z = +1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# free_evolve, sample_detunings and rotate_states are unused here but stay
# bound: the span tracer in benchmarks/tracing.py patches them under this module.
from .ensemble import (DetuningDistribution, SpinEnsemble, draw_detunings,  # noqa: F401
                       free_evolve, precess_in_place, precession_turn, sample_detunings)
from .errors import InvalidArgumentError
from .pulses import PulseSpec, jitter_angle, rotate_states, rotation_matrix  # noqa: F401
from .rng import DOMAIN_RANDOM_PHASE, DOMAIN_THERMALIZATION, spawn_generator

_X, _Y = 0.0, math.pi / 2.0

# Pulse phase patterns.  KDD replaces each XY-4 pulse by the standard
# five-pulse composite block (pi/6+phi, phi, pi/2+phi, phi, pi/6+phi);
# it is included for exploration and marked experimental.
_KDD_BLOCK = (math.pi / 6.0, 0.0, math.pi / 2.0, 0.0, math.pi / 6.0)
SEQUENCE_PHASES = {
    "xx": (_X, _X),
    "xy4": (_X, _Y, _X, _Y),
    "xy8": (_X, _Y, _X, _Y, _Y, _X, _Y, _X),
    "kdd": tuple(p + off for off in (_X, _Y, _X, _Y) for p in _KDD_BLOCK),
}
SEQUENCE_KINDS = tuple(SEQUENCE_PHASES)


@dataclass(frozen=True)
class SequenceStep:
    """A wait followed by an optional pulse (None for the closing wait)."""

    wait_s: float
    pulse: PulseSpec | None = None

    def __post_init__(self):
        if self.wait_s < 0:
            raise InvalidArgumentError(f"wait_s must be >= 0, got {self.wait_s}")


@dataclass(frozen=True)
class DDSequence:
    """An ordered list of steps spanning total_duration_s of storage time."""

    steps: tuple[SequenceStep, ...]
    kind: str
    total_duration_s: float

    def __post_init__(self):
        total = math.fsum(s.wait_s for s in self.steps)
        if abs(total - self.total_duration_s) > 1e-12 * max(self.total_duration_s, 1.0):
            raise InvalidArgumentError(
                f"waits sum to {total!r}, expected {self.total_duration_s!r}")
        if self.kind in SEQUENCE_KINDS and self.n_pulses % 2 != 0:
            raise InvalidArgumentError(f"{self.kind} must carry an even pulse count")

    @property
    def n_pulses(self) -> int:
        return sum(1 for s in self.steps if s.pulse is not None)

    @property
    def pulses(self) -> tuple[PulseSpec, ...]:
        return tuple(s.pulse for s in self.steps if s.pulse is not None)


def build_sequence(kind: str, t_s: float, pulse_template: PulseSpec | None = None) -> DDSequence:
    """Build a named sequence over storage time t_s.

    Every pulse copies the template (default: ideal pi pulse) with its
    axis_phase replaced by the pattern phase.  xy4 gives gaps
    [T/8, T/4, T/4, T/4, T/8] with phases X,Y,X,Y; xx gives
    [T/4, T/2, T/4] with two X pulses.
    """
    if kind not in SEQUENCE_KINDS:
        raise InvalidArgumentError(f"kind must be one of {SEQUENCE_KINDS}, got {kind!r}")
    if not t_s > 0:
        raise InvalidArgumentError(f"t_s must be > 0, got {t_s}")
    if pulse_template is None:
        pulse_template = PulseSpec()
    phases = SEQUENCE_PHASES[kind]
    n = len(phases)
    gap = t_s / n
    steps = []
    for i, phase in enumerate(phases):
        wait = gap / 2.0 if i == 0 else gap
        steps.append(SequenceStep(wait, replace(pulse_template, axis_phase=phase)))
    steps.append(SequenceStep(gap / 2.0))
    return DDSequence(tuple(steps), kind, t_s)


# Component-major starting points: |s> for one vector per spin, and the
# identity for a map (entry [i, j] is component i of the image of basis j).
_POLE = np.array([0.0, 0.0, 1.0])[:, None]
_IDENTITY = np.eye(3)[:, :, None]


def _rotate(m: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """out <- m v for component-major vectors v (rows x, y, z).

    m is a 3x3 matrix or a (3, 3, n) stack of per-spin matrices; out is
    shaped like v and must not overlap it.  One einsum contraction, without
    optimize=: numpy's own loop sums ((0 + m_i0 v0) + m_i1 v1) + m_i2 v2
    with a separate multiply and add per term, so each element has the bits
    of that explicit chain (an exact -0 comes out +0).  The optimize route
    goes through BLAS, which reorders the sum and fuses multiply-adds.
    """
    np.einsum("ij...,j...->i...", m, v, out=out)


def _rotate_in_place(m: np.ndarray, v: np.ndarray, scratch: np.ndarray) -> None:
    """v <- m v in place, through scratch (shaped like v); see _rotate."""
    _rotate(m, v, scratch)
    v[...] = scratch


def _propagate(states: np.ndarray, detunings_hz: np.ndarray, seq: DDSequence,
               seed: int | None, first_pulse: int = 0,
               turns: dict[float, tuple[np.ndarray, np.ndarray]] | None = None) -> np.ndarray:
    """Step component-major Bloch vectors through the sequence; the one
    sequence propagator.

    states is (3, n), one vector per spin, or (3, 3, n), the three basis
    columns of a map per spin.  A copy is stepped in place, step by step
    and column by column, with one (3, n) scratch buffer, and returned; the
    caller's array is never written.  Waits precess every column, with
    cos/sin computed once per distinct wait length and kept in turns (a
    caller that steps the same detunings again passes the same dict);
    pulses act as 3x3 matrices, each computed once per distinct pulse and
    jitter.  The k-th pulse of the sequence draws its jitter keyed by
    (seed, first_pulse + k), and a seed of None means no jitter.
    """
    out = np.array(states, dtype=float, order="C")
    columns = [out] if out.ndim == 2 else [out[:, j] for j in range(3)]
    scratch = np.empty((3, detunings_hz.size))
    turns = {} if turns is None else turns
    matrices: dict[tuple[PulseSpec, float], np.ndarray] = {}
    pulse_index = first_pulse
    for step in seq.steps:
        if step.wait_s > 0:
            if step.wait_s not in turns:
                turns[step.wait_s] = precession_turn(detunings_hz, step.wait_s)
            c, s = turns[step.wait_s]
            for v in columns:
                precess_in_place(v[0], v[1], c, s, scratch)
        if step.pulse is not None:
            key = (step.pulse, jitter_angle(step.pulse, seed, pulse_index))
            m = matrices.get(key)
            if m is None:
                m = rotation_matrix(step.pulse, detunings_hz, key[1])
                if step.pulse.rabi_hz is None:  # per-spin stacks are not kept: (3, 3, n) each
                    matrices[key] = m
            for v in columns:
                _rotate_in_place(m, v, scratch)
            pulse_index += 1
    return out


def apply_sequence(ens: SpinEnsemble, seq: DDSequence, seed: int = 0) -> SpinEnsemble:
    """Run the ensemble through the sequence (free evolution + pulses).

    Jitter, when enabled on the pulses, is drawn once per pulse application
    keyed by (seed, pulse index), so runs are reproducible and independent
    of per-spin parallelism.
    """
    states = _propagate(ens.states.T, ens.detunings_hz, seq, seed)
    return replace(ens, states=states.T)


def _sequence_maps(seq: DDSequence, detunings_hz: np.ndarray) -> np.ndarray:
    """Component-major (3, 3, n) sequence maps: the identity propagated once."""
    identity = np.broadcast_to(_IDENTITY, (3, 3, detunings_hz.size))
    return _propagate(identity, detunings_hz, seq, None)


def sequence_rotation_matrix(seq: DDSequence, detuning_hz: float | np.ndarray = 0.0) -> np.ndarray:
    """Exact 3x3 rotation implemented by one sequence at a given detuning.

    The columns are the images of the x, y and z basis vectors.  A scalar
    detuning gives one (3, 3) matrix; a 1-d array of n detunings gives an
    (n, 3, 3) stack, built by propagating the three basis vectors together
    in one pass.  Jitter is excluded: this is the deterministic map used
    for error budgets.
    """
    det = np.asarray(detuning_hz, dtype=float)
    maps = np.ascontiguousarray(np.moveaxis(_sequence_maps(seq, det.ravel()), 2, 0))
    return maps[0] if det.ndim == 0 else maps


def sequence_population_error(seq: DDSequence,
                              detuning_hz: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Population moved to the |g> pole by one sequence (no jitter, no Monte Carlo).

    A spin starts at z = +1; an even sequence should return it there, so
    the error is (1 - z_final)/2.  detuning_hz may be a scalar (a float is
    returned) or a 1-d array (one error per detuning is returned).
    """
    det = np.asarray(detuning_hz, dtype=float)
    states = np.broadcast_to(_POLE, (3, det.size))
    z_final = _propagate(states, det.ravel(), seq, None)[2]
    err = 0.5 * (1.0 - z_final)
    return float(err[0]) if det.ndim == 0 else err


def calibrate_systematic_error(target_error: float, kind: str = "xx",
                               t_s: float = 0.5e-3) -> float:
    """Fit the per-pulse fractional angle error eps so that the xx sequence
    reproduces a measured per-sequence population error at line centre.

    At line centre every wait is the identity, so two X pulses compose to
    one rotation by 2 pi (1 + eps), whose error is sin^2(pi eps): the fit is
    eps = asin(sqrt(target_error)) / pi.  kind must be "xx" and t_s must be
    > 0; t_s does not enter the result.
    """
    if not 0.0 <= target_error <= 0.5:
        raise InvalidArgumentError(f"target_error must be in [0, 0.5], got {target_error}")
    if kind != "xx":
        raise InvalidArgumentError(f"kind must be 'xx', got {kind!r}")
    if not t_s > 0:
        raise InvalidArgumentError(f"t_s must be > 0, got {t_s}")
    return math.asin(math.sqrt(target_error)) / math.pi + 0.0  # + 0.0: -0.0 gives +0.0


@dataclass(frozen=True)
class ThermalizationCurve:
    """Population in |g> versus number of applied sequences.

    rho_g is the closed-form track; rho_g_mc and stderr are present when a
    Monte Carlo run produced the curve.
    """

    n_sequences: np.ndarray
    rho_g: np.ndarray
    rho_g_mc: np.ndarray | None = None
    stderr: np.ndarray | None = None


def thermalization_curve(eps_seq: float, n_max: int) -> ThermalizationCurve:
    """Closed-form two-level mixing: rho_g(N) = (1 - (1 - 2 eps)^N) / 2.

    eps_seq is the population error per sequence, in [0, 0.5]; the curve
    starts at rho_g(0) = 0 and saturates at 1/2.
    """
    if not 0.0 <= eps_seq <= 0.5:
        raise InvalidArgumentError(f"eps_seq must be in [0, 0.5], got {eps_seq}")
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    ns = np.arange(n_max + 1)
    rho = 0.5 * (1.0 - (1.0 - 2.0 * eps_seq) ** ns)
    return ThermalizationCurve(ns, rho)


def _flip_monte_carlo(eps, n_spins: int, n_max: int,
                      rng: np.random.Generator) -> ThermalizationCurve:
    """Each of n_max sequences flips each spin between the poles with
    probability eps (a scalar, or one value per spin); the closed-form
    track uses the mean of eps."""
    if n_spins < 1:
        raise InvalidArgumentError(f"n_spins must be >= 1, got {n_spins}")
    in_g = np.zeros(n_spins, dtype=bool)
    rho_mc = np.empty(n_max + 1)
    rho_mc[0] = 0.0
    for k in range(1, n_max + 1):
        in_g ^= rng.random(n_spins) < eps
        rho_mc[k] = in_g.mean()
    closed = thermalization_curve(float(np.mean(eps)), n_max).rho_g
    stderr = np.sqrt(np.maximum(rho_mc * (1.0 - rho_mc), 1e-12) / n_spins)
    return ThermalizationCurve(np.arange(n_max + 1), closed, rho_mc, stderr)


def thermalization_monte_carlo(seq: DDSequence, dist: DetuningDistribution, n_spins: int,
                               n_max: int, seed: int = 0) -> ThermalizationCurve:
    """Monte Carlo thermalization under repeated sequences with interleaved
    population readout.

    The experiment estimates rho_g by an absorption measurement after each
    sequence, which destroys transverse spin coherence; accordingly each
    spin is projected onto a pole after every sequence, flipping with the
    per-spin probability given by the exact sequence map at its
    detuning.  The closed-form track for the ensemble-mean per-sequence
    error is returned alongside the sampled one.
    """
    det = draw_detunings(dist, n_spins, seed)
    eps = np.clip(sequence_population_error(seq, det), 0.0, 1.0)
    rng = spawn_generator(seed, DOMAIN_THERMALIZATION)
    return _flip_monte_carlo(eps, n_spins, n_max, rng)


def thermalization_monte_carlo_uniform(eps_seq: float, n_spins: int, n_max: int,
                                       seed: int = 0, stream: int = 0) -> ThermalizationCurve:
    """Monte Carlo thermalization with a detuning-independent per-sequence error.

    Chirped adiabatic inversion acts near-uniformly across the line, so the
    measured per-sequence error applies to every spin alike; each sequence
    flips each spin with probability eps_seq (with interleaved projective
    readout, as in thermalization_monte_carlo).
    """
    if not 0.0 <= eps_seq <= 0.5:
        raise InvalidArgumentError(f"eps_seq must be in [0, 0.5], got {eps_seq}")
    rng = spawn_generator(seed, DOMAIN_THERMALIZATION, stream)
    return _flip_monte_carlo(eps_seq, n_spins, n_max, rng)


def rephasing_fidelity(ens: SpinEnsemble, seq: DDSequence, seed: int = 0) -> float:
    """|collective coherence| at the end of the sequence for a stored coherence.

    The ensemble is prepared fully transverse along x (the unit spin-wave
    amplitude), run through the sequence, and the surviving collective
    amplitude magnitude is returned.  Its square is the intensity factor
    that feeds the memory efficiency chain.
    """
    transverse = np.broadcast_to([[1.0], [0.0], [0.0]], (3, ens.n))
    # reduced over spin-major (n, 3) rows, as collective_coherence of the
    # final ensemble would: contiguous rows sum in another BLAS order
    final = np.ascontiguousarray(_propagate(transverse, ens.detunings_hz, seq, seed).T)
    w = ens.weights
    return abs(complex(np.dot(w, final[:, 0]), -np.dot(w, final[:, 1])))


@dataclass(frozen=True)
class RandomPhaseStudy:
    """Population pumped out of the pole by repeated sequences acting on a
    slightly tilted initial state with a spin-random phase (unvalidated
    exploration; no reference measurement exists).  rho_g[i, k] is the |g>
    population after k applications of the i-th sequence."""

    rho_g: np.ndarray


def random_phase_population_study(seqs: Sequence[DDSequence], detunings_hz: np.ndarray,
                                  weights: np.ndarray, n_max: int, tilt: float = 0.1,
                                  seed: int = 0) -> RandomPhaseStudy:
    """Track |g> population while each sequence acts on near-pole random-phase spins.

    The spins are given by their detunings and weights.  Each starts tilted
    off |s> by the given transverse amplitude at an independent uniform
    phase (the state produced by storing a weak random optical field); that
    start state is drawn once and every sequence gets its own copy, which
    it applies coherently n_max times with no readout in between.
    Without jitter every repetition is the same map, so each spin's 3x3
    sequence map is composed once and applied n_max times, each time from
    one buffer into the other.  With jitter the sequence is stepped pulse by
    pulse, with one cos/sin cache per sequence across its repetitions, and
    pulses are counted across repetitions: the k-th pulse of repetition r
    (both from 0) draws its jitter keyed by (seed, r * seq.n_pulses + k), so
    no two applications of one sequence share a draw.
    """
    if not 0.0 < tilt < 1.0:
        raise InvalidArgumentError(f"tilt must be in (0, 1), got {tilt}")
    det, w, n_spins = detunings_hz, weights, detunings_hz.size
    phi = spawn_generator(seed, DOMAIN_RANDOM_PHASE).uniform(0.0, 2.0 * math.pi, n_spins)
    start = np.empty((3, n_spins))
    start[0] = tilt * np.cos(phi)
    start[1] = tilt * np.sin(phi)
    start[2] = math.sqrt(1.0 - tilt * tilt)
    del phi  # 8 bytes a spin that would stay alive through the repetitions
    loss = np.empty(n_spins)

    def population_in_g(z: np.ndarray) -> float:
        np.subtract(1.0, z, out=loss)  # 0.5 * (1 - z), with no temporaries
        np.multiply(0.5, loss, out=loss)
        return np.dot(w, loss)

    rho = np.empty((len(seqs), n_max + 1))
    for i, seq in enumerate(seqs):
        jittered = any(p.jitter_sd > 0 for p in seq.pulses)
        maps = None if jittered else _sequence_maps(seq, det)
        states, spare = start.copy(), np.empty_like(start)
        turns: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        rho[i, 0] = population_in_g(states[2])
        for k in range(1, n_max + 1):
            if jittered:
                states = _propagate(states, det, seq, seed, (k - 1) * seq.n_pulses, turns)
            else:
                _rotate(maps, states, spare)
                states, spare = spare, states
            rho[i, k] = population_in_g(states[2])
        del maps, states, spare, turns  # freed before the next sequence composes its maps
    return RandomPhaseStudy(rho)


@dataclass(frozen=True)
class PrecisionReport:
    """The naive per-pulse precision bound 1/N against what a model achieves."""

    naive_bound: float
    achieved: float
    ratio: float


def precision_requirement(n_spins: int, achieved_error: float) -> PrecisionReport:
    """Compare an achieved pulse error to the naive 1/N precision bound.

    Diagnostic only: collective emission filters pulse-error noise spatially,
    so the naive bound vastly overstates what storage actually requires.
    """
    if n_spins < 1:
        raise InvalidArgumentError(f"n_spins must be >= 1, got {n_spins}")
    bound = 1.0 / n_spins
    return PrecisionReport(bound, achieved_error, achieved_error / bound)
