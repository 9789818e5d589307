"""Dynamical-decoupling sequences and their population-error bookkeeping.

A sequence is its kind, its storage time T and its pi pulse.  The kind's
n pulses sit at the centers of equal refocusing intervals (half-gaps at
both ends), so the gaps are [T/2n, T/n, ..., T/n, T/2n], and each pulse is
the sequence's pulse at the kind's pattern phase.  Population error of a
sequence is the probability mass moved to the |g> pole (z = -1) after one
full sequence applied to a spin prepared in |s> (z = +1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# free_evolve, sample_detunings, rotate_states and rotation_matrix are unused
# here but stay bound: the span tracer in benchmarks/tracing.py patches them
# under this module.
from .ensemble import (DetuningDistribution, SpinEnsemble, draw_detunings,  # noqa: F401
                       free_evolve, sample_detunings)
from .errors import InvalidArgumentError, check_count
from .pulses import (PulseSpec, bloch_map, cayley_klein, detuning_array,  # noqa: F401
                     jitter_angle, norm2, rotate_states, rotation_matrix)
from .rng import DOMAIN_RANDOM_PHASE, DOMAIN_THERMALIZATION, spawn_generator

_X, _Y = 0.0, math.pi / 2.0

# Pulse phase patterns, each of an even count.  KDD replaces each XY-4 pulse
# by the standard five-pulse composite block (pi/6+phi, phi, pi/2+phi, phi,
# pi/6+phi); it is included for exploration and marked experimental.
_KDD_BLOCK = (math.pi / 6.0, 0.0, math.pi / 2.0, 0.0, math.pi / 6.0)
SEQUENCE_PHASES = {
    "xx": (_X, _X),
    "xy4": (_X, _Y, _X, _Y),
    "xy8": (_X, _Y, _X, _Y, _Y, _X, _Y, _X),
    "kdd": tuple(p + off for off in (_X, _Y, _X, _Y) for p in _KDD_BLOCK),
}
SEQUENCE_KINDS = tuple(SEQUENCE_PHASES)

# Longest storage time: far above any physical one (ms to hours), and low
# enough that the precession phase 2 pi detuning t and the envelope exponent
# (pi fwhm t)^2 stay finite for every line up to ensemble.MAX_FWHM_HZ.
MAX_STORAGE_TIME_S = 1e12


@dataclass(frozen=True)
class DDSequence:
    """The kind's n_pulses pulses over t_s seconds of storage time: pulse at
    each of the kind's pattern phases."""

    kind: str
    t_s: float
    pulse: PulseSpec

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise InvalidArgumentError(f"kind must be one of {SEQUENCE_KINDS}, got {self.kind!r}")
        if not 0 < self.t_s <= MAX_STORAGE_TIME_S:
            raise InvalidArgumentError(
                f"t_s must be in (0, {MAX_STORAGE_TIME_S:g}], got {self.t_s}")

    @property
    def phases(self) -> tuple[float, ...]:
        return SEQUENCE_PHASES[self.kind]

    @property
    def n_pulses(self) -> int:
        return len(self.phases)


def build_sequence(kind: str, t_s: float, pulse_template: PulseSpec | None = None) -> DDSequence:
    """The named sequence over storage time t_s with the template pulse
    (default: ideal pi pulse).  xy4 gives gaps [T/8, T/4, T/4, T/4, T/8]
    with phases X,Y,X,Y; xx gives [T/4, T/2, T/4] with two X pulses.
    """
    return DDSequence(kind, t_s, PulseSpec() if pulse_template is None else pulse_template)


# OpenBLAS splits a dot of more elements than this across its threads, and
# the order of its sum then depends on the thread count.
_DOT_CHUNK = 10_000


def _dot(x: np.ndarray, y: np.ndarray):
    """np.dot of two 1-d arrays, with bits that do not depend on the BLAS
    thread count: chunks of at most _DOT_CHUNK elements are dotted one by
    one and their sums added in order, so up to _DOT_CHUNK elements it is
    one np.dot."""
    return sum(np.dot(x[i:i + _DOT_CHUNK], y[i:i + _DOT_CHUNK])
               for i in range(0, x.size, _DOT_CHUNK))


def _phasor(angle: np.ndarray, out: np.ndarray) -> None:
    """out <- e^{i angle}, as ((1 - t^2) + 2 i t) / (1 + t^2) with t =
    tan(angle/2), overwriting angle.

    One tangent costs a tenth of a cosine and a sine where numpy vectorizes
    tan and not cos/sin (10k angles of up to 30 rad on a 2-vCPU AVX-512
    Xeon, numpy 2.4.6: 29 us against 220 + 212 us), and the parts agree
    with them within 2.3e-16.
    """
    t = np.tan(np.multiply(angle, 0.5, out=angle), out=angle)
    np.multiply(t, 2.0, out=out.imag)
    t *= t
    np.subtract(1.0, t, out=out.real)
    t += 1.0
    out.real /= t
    out.imag /= t


def _half_gap_turn(seq: DDSequence, detunings_hz: np.ndarray) -> np.ndarray:
    """The (2, n) diagonal [e^{-i pi det h}; e^{i pi det h}] of each spin's
    map over the half-gap h = (T/n)/2 of the sequence."""
    turn = np.empty((2, detunings_hz.size), dtype=complex)
    _phasor(np.multiply(detunings_hz, math.pi * (seq.t_s / seq.n_pulses / 2.0)), turn[1])
    np.conjugate(turn[1], out=turn[0])
    return turn


def _propagate(ab: np.ndarray, detunings_hz: np.ndarray, seq: DDSequence, seed: int | None,
               first_pulse: int = 0, turn: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """Compose each spin's SU(2) map with the sequence; the one sequence
    propagator.

    ab is a (2, n) complex array, or one (2, 1) column for every spin, whose
    column j is the first column (a, b) of spin j's map U = [[a, -b*],
    [b, a*]]: the identity (1, 0) gives the
    sequence's own map, and a pure spin state, whose spinor is such a
    column, is carried through the sequence the same way (|s> is (1, 0);
    its Bloch vector has x + i y = 2 a* b and z = |a|^2 - |b|^2).  A copy
    is stepped in place with one (2, n) scratch buffer and returned; the
    caller's array is never written.  A caller that propagates again and
    again passes work, a (2, 2, n) complex array it keeps: the copy is then
    work[0] (ab may be work[0] itself) and the scratch work[1].  Arrays this
    size, allocated afresh at every call, go back to the system when freed
    and cost a page fault per 4 KiB when touched again: 1,230 faults and
    2-5 ms of an 11-15 ms random_phase run on 10k spins (2-vCPU Xeon).

    Each pulse is a half-gap, the pulse and a half-gap, so a full gap is two
    multiplies by the half-gap's diagonal turn (_half_gap_turn; a caller
    that steps the same detunings again passes the one it keeps).  A pulse
    U_p = [[a, -b*], [b, a*]], b = -i s e^{i phase}, is two multiply-adds,
    with (a, s) from pulses.cayley_klein built once per call, or once per
    pulse when its jitter angle changes (the pattern phase is a scalar on b).
    The k-th pulse of the sequence draws its jitter keyed by (seed,
    first_pulse + k), and a seed of None means no jitter.
    """
    out, scratch = np.empty((2, 2, detunings_hz.size), dtype=complex) if work is None else work
    out[...] = ab
    turn = _half_gap_turn(seq, detunings_hz) if turn is None else turn
    built = None  # the jitter of the rotation (a, s) last built
    for k, phase in enumerate(seq.phases):
        out *= turn
        jitter = jitter_angle(seq.pulse, seed, first_pulse + k)
        if jitter != built:  # once without jitter: a jittered angle never recurs
            built = jitter
            a, s = cayley_klein(seq.pulse, detunings_hz, jitter)
            # a per-spin a is stacked over its conjugate: one multiply of the
            # whole (2, n) array, as numpy rounds an in-place complex multiply
            # of one element apart from a longer one, so row by row a
            # one-spin map would drift from the same spin's map in a stack
            if np.ndim(a):
                a = np.array([a, a.conj()])
        # U (a, b) with b_p = -i s e^{i phase}: a multiplies row a and a* row
        # b, and -b_p* b and b_p a come from the swapped rows
        np.multiply(out[::-1], -1j * s * np.exp([[-1j * phase], [1j * phase]]), out=scratch)
        out *= a
        out += scratch
        out *= turn
    return out


def _sequence_map(seq: DDSequence, detunings_hz: np.ndarray, seed: int | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """(2, n) first columns (a, b) of each spin's sequence map: the identity's
    first column (1, 0) propagated."""
    return _propagate(np.array([[1.0 + 0.0j], [0.0j]]), detunings_hz, seq, seed, work=work)


def apply_sequence(ens: SpinEnsemble, seq: DDSequence, seed: int = 0) -> SpinEnsemble:
    """Run the ensemble through the sequence (free evolution + pulses).

    Each spin's SU(2) map is composed once and applied to its Bloch vector
    as a 3x3 rotation.  Jitter, when enabled on the pulses, is drawn once
    per pulse application keyed by (seed, pulse index), so runs are
    reproducible and independent of per-spin parallelism.
    """
    maps = bloch_map(_sequence_map(seq, ens.detunings_hz, seed))
    return replace(ens, states=np.einsum("...ij,...j->...i", maps, ens.states))


def sequence_rotation_matrix(seq: DDSequence, detuning_hz: float | np.ndarray = 0.0) -> np.ndarray:
    """Exact 3x3 rotation implemented by one sequence at a given detuning.

    The columns are the images of the x, y and z basis vectors.  A scalar
    detuning gives one (3, 3) matrix; a 1-d array of n detunings gives an
    (n, 3, 3) stack, read off each spin's composed SU(2) map.  Jitter is
    excluded: this is the deterministic map used for error budgets.
    """
    det = detuning_array(detuning_hz)
    maps = bloch_map(_sequence_map(seq, det.ravel()))
    return maps[0] if det.ndim == 0 else maps


def sequence_population_error(seq: DDSequence,
                              detuning_hz: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Population moved to the |g> pole by one sequence (no jitter, no Monte Carlo).

    A spin starts at z = +1, the spinor (1, 0); the sequence's map takes it
    to its first column (a, b), whose |g> population is |b|^2 (read
    directly, not as (1 - z)/2, which cancels when the error is small).
    detuning_hz may be a scalar (a float is returned) or a 1-d array (one
    error per detuning is returned).
    """
    det = detuning_array(detuning_hz)
    err = norm2(_sequence_map(seq, det.ravel())[1])
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
    check_count("n_max", n_max, minimum=0)
    ns = np.arange(n_max + 1)
    rho = 0.5 * (1.0 - (1.0 - 2.0 * eps_seq) ** ns)
    return ThermalizationCurve(ns, rho)


def _flip_monte_carlo(eps, n_spins: int, n_max: int,
                      rng: np.random.Generator) -> ThermalizationCurve:
    """Each of n_max sequences flips each spin between the poles with
    probability eps (a scalar, or one value per spin); the closed-form
    track uses the mean of eps."""
    check_count("n_spins", n_spins)
    check_count("n_max", n_max, minimum=0)
    in_g = np.zeros(n_spins, dtype=bool)
    rho_mc = np.empty(n_max + 1)
    rho_mc[0] = 0.0
    for k in range(1, n_max + 1):
        in_g ^= rng.random(n_spins) < eps
        rho_mc[k] = np.count_nonzero(in_g) / n_spins
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


def _spin_arrays(detunings_hz: float | np.ndarray,
                 weights: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spins' detunings (a scalar or 1-d, as pulses.detuning_array
    takes them) and their weights, which must have the detunings' shape, as
    1-d float arrays."""
    det = detuning_array(detunings_hz)
    w = np.asarray(weights, dtype=float)
    if w.shape != det.shape:
        raise InvalidArgumentError(
            f"weights must have the detunings' shape {det.shape}, got {w.shape}")
    return det.ravel(), w.ravel()


def rephasing_fidelity(seq: DDSequence, detunings_hz: np.ndarray, weights: np.ndarray,
                       seed: int = 0) -> float:
    """|collective coherence| at the end of the sequence for a stored coherence.

    The spins, given by their detunings (a scalar or a 1-d array) and
    weights of the same shape, are prepared fully transverse along x (the
    unit spin-wave amplitude) and run through the sequence, and the
    surviving collective amplitude magnitude is returned.  Its square is
    the intensity factor that feeds the memory efficiency chain.  Each
    spin's x vector ends at x - i y = a^2 - (b*)^2 of its sequence map, the
    first column of apply_sequence's rotation.
    """
    det, w = _spin_arrays(detunings_hz, weights)
    a, b = _sequence_map(seq, det, seed)
    cb = np.conjugate(b)
    x_image = a * a - cb * cb  # as bloch_map computes it, to the bit
    # the real and imaginary parts are strided views, summed by BLAS in the
    # order of a column of SpinEnsemble.states, so the bits match a reduction
    # of an ensemble's final states; contiguous rows sum in another order
    return abs(complex(_dot(w, x_image.real), _dot(w, x_image.imag)))


def _repeated_rotation(ab: np.ndarray, transverse: np.ndarray, vz, w: np.ndarray,
                       rho0: float, n_max: int, spare: np.ndarray) -> np.ndarray:
    """|g> population after 1..n_max applications of per-spin rotations to
    the vectors v, in closed form.

    ab is the (2, n) stack of the rotations' SU(2) first columns (a, b),
    transverse = v_x + i v_y, vz the z components (a scalar or one per
    spin), w the weights and rho0 the population of v.  A rotation by theta
    about the unit axis u has cos(theta/2) = Re a and u sin(theta/2) = q =
    (-Im b, Re b, -Im a).  R^k = cos(k theta) I + sin(k theta) [u]x
    + (1 - cos(k theta)) u u^T, so after k applications z = v_z + alpha
    sin(k theta) + beta (1 - cos(k theta)), with alpha = (u x v)_z = -Re(b
    conj(transverse)) / |q| and beta = u_z (u . v) - v_z, where q . v =
    -Im(b conj(transverse)) - Im(a) v_z.  Where q is 0 (theta = 0 or
    2 pi), alpha and beta are 0.  Every angle, pi included, reads the axis
    from q with no cancellation.

    So rho_k = rho0 - sum(w beta)/2 + Re(sum(e^{ik theta} w (beta + i
    alpha)))/2, with e^{i theta} = (h / |h|)^2, h = Re a + i |q|.  The
    phasor step = e^{-i theta} and the coefficients conj(w (beta + i alpha))
    are the rows of spare, a (2, n) complex array the caller keeps, and
    rho_k reads Re(sum(step^k coefficients)).  Once (a, b) have been
    read, ab holds step^1..step^4 of a chunk of at most min(_DOT_CHUNK, n/2)
    spins (a one-spin call has a 4-element block of its own): one np.dot of
    that (4, chunk) block with the chunk's coefficients gives four
    repetitions, and the coefficients advance by one multiply with step^4.
    The chunks' sums are added in order, as _dot adds them, so the bits do
    not depend on the BLAS thread count.  A (4, min(_DOT_CHUNK, n)) block of
    its own would raise the study's peak at 10k spins from 145 to 186 bytes
    a spin.
    """
    a, b = ab
    sin = np.sqrt(norm2(b) + a.imag * a.imag)  # |q|
    norm = a.real * a.real + sin * sin  # |h|^2 for h = Re a + i |q|
    step, gamma = spare  # step: e^{-i theta}
    step.real, step.imag = (a.real * a.real - sin * sin) / norm, -2.0 * a.real * sin / norm
    np.conjugate(b, out=gamma)
    gamma *= transverse  # -alpha |q| + i (q . v + Im(a) v_z)
    beta = a.imag * (a.imag * vz - gamma.imag)  # u_z (u . v) |q|^2
    inv = np.divide(1.0, sin, out=sin, where=sin > 0.0)
    beta = beta * inv * inv - vz * (inv > 0.0)
    gamma.imag = gamma.real * inv * w  # conj(w (beta + i alpha))
    gamma.real = w * beta
    offset = rho0 - 0.5 * _dot(w, beta)
    chunk = min(_DOT_CHUNK, max(step.size // 2, 1))  # 4 chunk <= the 2 n entries of ab
    powers = ab.reshape(-1) if step.size > 1 else np.empty(4, dtype=complex)
    track = np.zeros((-(-n_max // 4), 4), dtype=complex)
    for i in range(0, step.size, chunk):
        s, g = step[i:i + chunk], gamma[i:i + chunk]
        p = powers[:4 * s.size].reshape(4, s.size)
        p[0] = s
        np.multiply(s, s, out=p[1])
        np.multiply(p[1], s, out=p[2])
        np.multiply(p[1], p[1], out=p[3])
        for block in track:
            block += np.dot(p, g)
            g *= p[3]
    return offset + 0.5 * track.real.ravel()[:n_max]


def random_phase_population_study(seqs: Sequence[DDSequence], detunings_hz: np.ndarray,
                                  weights: np.ndarray, n_max: int, tilt: float = 0.1,
                                  seed: int = 0) -> np.ndarray:
    """Track |g> population while each sequence acts on near-pole random-phase spins.

    Returns the (len(seqs), n_max + 1) array whose [i, k] entry is the |g>
    population after k applications of the i-th sequence: population
    pumped out of the pole by repeated sequences acting on a slightly
    tilted initial state with a spin-random phase (unvalidated exploration;
    no reference measurement exists).

    The spins are given by their detunings (a scalar or a 1-d array) and
    weights of the same shape.  Each starts tilted off |s> by the given
    transverse amplitude at an independent uniform phase (the state
    produced by storing a weak random optical field); that start state is
    drawn once, and every sequence is applied to it coherently n_max times
    with no readout in between.  Without jitter every repetition is the
    same rotation, so each spin's SU(2) sequence map is
    composed once and its n_max powers are taken in closed form
    (_repeated_rotation): one (4, chunk) matrix-vector product per chunk of
    spins and four repetitions, not a map application per repetition.  With
    jitter each spin's spinor is stepped pulse by pulse, with one half-gap
    turn per sequence across its repetitions, and its |g> population is |b|^2;
    pulses are counted across repetitions: the k-th pulse of repetition r
    (both from 0) draws its jitter keyed by (seed, r * seq.n_pulses + k), so
    no two applications of one sequence share a draw.
    """
    if not 0.0 < tilt < 1.0:
        raise InvalidArgumentError(f"tilt must be in (0, 1), got {tilt}")
    check_count("n_max", n_max, minimum=0)
    det, w = _spin_arrays(detunings_hz, weights)
    n_spins = det.size
    phi = spawn_generator(seed, DOMAIN_RANDOM_PHASE).uniform(0.0, 2.0 * math.pi, n_spins)
    transverse = np.empty(n_spins, dtype=complex)
    _phasor(phi, transverse)
    transverse *= tilt
    del phi  # 8 bytes a spin that would stay alive through the repetitions
    vz = math.sqrt(1.0 - tilt * tilt)

    work = np.empty((2, 2, n_spins), dtype=complex)  # kept across sequences: see _propagate
    rho = np.empty((len(seqs), n_max + 1))
    rho[:, 0] = 0.5 * (1.0 - vz) * w.sum()
    for i, seq in enumerate(seqs):
        if seq.pulse.jitter_sd == 0.0:
            rho[i, 1:] = _repeated_rotation(_sequence_map(seq, det, work=work), transverse, vz, w,
                                            rho[i, 0], n_max, work[1])
            continue
        # the start vector's spinor (cos(t/2), e^{i phi} sin(t/2)), t its tilt
        # angle, is (cos(t/2), transverse / (2 cos(t/2)))
        work[0, 0], work[0, 1] = math.sqrt(0.5 + 0.5 * vz), transverse / math.sqrt(2.0 + 2.0 * vz)
        turn = _half_gap_turn(seq, det)
        for k in range(1, n_max + 1):
            states = _propagate(work[0], det, seq, seed, (k - 1) * seq.n_pulses, turn, work)
            rho[i, k] = _dot(w, norm2(states[1]))
        del turn  # freed before the next sequence composes its maps
    return rho
