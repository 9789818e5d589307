"""The benchmark's workloads: what one operation runs, and how its outputs are checked.

Every operation drives the public API (config.load_config, then
runner.run_experiment, plus the named library functions) with a per-
operation seed.  `run` is the timed part; `check` and `outputs` run after
the clock stops.  Functions are reached through their modules so the
tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path

from afcmem import config, pulses, runner, sequences

import common

# Bernstein false-alarm rate per compared point.  The seed changes on every
# operation, so a fixed-seed 3-stderr test would fail ~0.3% of correct
# operations; this bound fails a correct program with negligible probability
# and still flags a Monte Carlo that misses its closed form by many stderr.
MC_FALSE_ALARM = 1e-9

# Relative tolerance for values read back from the 12-significant-digit CSVs.
CSV_RTOL = 1e-10


def _run_preset(name: str, seed: int, out_dir: Path):
    cfg, fixtures = config.load_config(name, {"seed": seed})
    runner.run_experiment(cfg, fixtures, out_dir=out_dir)
    return cfg


def _files(out_dir: Path) -> dict[str, bytes]:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _report(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def _close(a: float, b: float, rtol: float = CSV_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def bernstein_tolerance(n: int, rho: float, alpha: float = MC_FALSE_ALARM) -> float:
    """Largest |sampled - expected| fraction of n independent Bernoulli spins
    that Bernstein's inequality allows at false-alarm rate alpha, given the
    expected fraction rho."""
    log_term = math.log(2.0 / alpha)
    var = n * rho * (1.0 - rho)
    t = log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * log_term * var)
    return t / n


def _mc_disagreements(label: str, closed, sampled, n: int) -> list[str]:
    bad = []
    for k, (c, s) in enumerate(zip(closed, sampled)):
        tol = bernstein_tolerance(n, min(max(c, 0.0), 1.0))
        if abs(s - c) > tol:
            bad.append(f"{label}: N={k} monte carlo {s:.6g} vs closed form {c:.6g} "
                       f"(tolerance {tol:.3g})")
    return bad


def chernoff_log_tail(observed: float, expected: float) -> float:
    """Log of the Chernoff bound on P(T <= observed) when observed < expected,
    or on P(T >= observed) when observed > expected, for T a sum of
    independent Bernoulli variables with mean `expected`."""
    if observed == expected:
        return 0.0
    if observed == 0:
        return -expected
    return -expected + observed - observed * math.log(observed / expected)


class Workload:
    """One operation is `run`; `check` and `outputs` inspect it afterwards."""

    def run_check(self, results) -> list[str]:
        """Checks that pool the results of every passing operation of a run."""
        return []


class DDRandomPhase(Workload):
    """The random_phase preset: xx/xy4/xy8/kdd on 10k spins, 50 repetitions each."""

    name = "dd_random_phase"

    def run(self, seed: int, out_dir: Path):
        return _run_preset("random_phase", seed, out_dir)

    def check(self, seed: int, out_dir: Path, cfg) -> list[str]:
        tilt = cfg.random_phase.tilt
        expected0 = 0.5 * (1.0 - math.sqrt(1.0 - tilt * tilt))
        with open(out_dir / "random_phase.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = []
        for kind in cfg.random_phase.kinds:
            values = [float(row[f"rho_g_{kind}"]) for row in rows]
            if not _close(values[0], expected0):
                bad.append(f"rho_g_{kind}[0] = {values[0]!r}, expected {expected0!r}")
            if not all(0.0 <= v <= 1.0 for v in values):
                bad.append(f"rho_g_{kind} leaves [0, 1]")
        return bad

    def outputs(self, out_dir: Path, cfg) -> dict[str, bytes]:
        return _files(out_dir)


class MemoryChain(Workload):
    """fig2a, fig2b, fig2c and table1 in turn."""

    name = "memory_chain"
    presets = common.WORKLOAD_PRESETS[name]

    def run(self, seed: int, out_dir: Path):
        for name in self.presets:
            _run_preset(name, seed, out_dir / name)

    def check(self, seed: int, out_dir: Path, _) -> list[str]:
        bad = []
        for name in ("fig2a", "fig2b", "fig2c"):
            rep = _report(out_dir / name / "report.csv")
            eta = float(rep["results.eta_model"])
            value = float(rep["results.fixtures.eta.value"])
            err = float(rep["results.fixtures.eta.err"])
            if not abs(eta - value) <= err:
                bad.append(f"{name}: eta_model {eta:.6g} outside fixture {value} +- {err}")
        for name in ("fig2a", "fig2b"):
            rep = _report(out_dir / name / "report.csv")
            snr, mu1 = float(rep["results.simulated.snr"]), float(rep["results.simulated.mu1"])
            mu = float(rep["results.simulated.mu"])
            if not _close(snr * mu1, mu):
                bad.append(f"{name}: snr*mu1 = {snr * mu1!r} != mu = {mu!r}")
        return bad

    def outputs(self, out_dir: Path, _) -> dict[str, bytes]:
        return _files(out_dir)


class PulseBudget(Workload):
    """fig1d, the adiabatic inversion profile, and the per-detuning
    thermalization Monte Carlo under the xx-calibrated pulse error."""

    name = "pulse_budget"
    mc_spins = 2000
    mc_n_max = 120

    def run(self, seed: int, out_dir: Path):
        cfg = _run_preset("fig1d", seed, out_dir)
        dist = cfg.ensemble.to_domain()
        profile = pulses.inversion_error_profile(cfg.adiabatic.to_domain(), dist, n_samples=41)
        t_s = cfg.sequence.t_s_s
        eps = sequences.calibrate_systematic_error(cfg.thermalization.eps_xx, kind="xx", t_s=t_s)
        seq = sequences.build_sequence(
            "xy4", t_s, replace(cfg.pulse.to_domain(), systematic_error=eps))
        mc = sequences.thermalization_monte_carlo(seq, dist, self.mc_spins, self.mc_n_max,
                                                  seed=seed)
        return cfg, profile, mc

    def check(self, seed: int, out_dir: Path, result) -> list[str]:
        cfg, profile, mc = result
        bad = []
        rep = _report(out_dir / "report.csv")
        xx = float(rep["results.xx_composition_eps_per_sequence"])
        if not abs(xx - cfg.thermalization.eps_xx) < 1e-9:
            bad.append(f"calibrated xx composition gives {xx!r}, expected "
                       f"{cfg.thermalization.eps_xx}")
        for kind in ("xx", "xy4"):
            with open(out_dir / f"thermalization_{kind}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            bad += _mc_disagreements(
                f"fig1d {kind}", [float(r["rho_g_closed_form"]) for r in rows],
                [float(r["rho_g_monte_carlo"]) for r in rows], cfg.ensemble.n_spins)
        bad += _mc_disagreements("xy4 per-detuning", mc.rho_g.tolist(),
                                 mc.rho_g_mc.tolist(), self.mc_spins)
        eps = float(mc.rho_g[1])
        if not 0.0 < eps < 0.5 or not all(
                _close(a, b, 1e-12) for a, b in zip(
                    mc.rho_g.tolist(),
                    sequences.thermalization_curve(eps, self.mc_n_max).rho_g.tolist())):
            bad.append(f"xy4 per-detuning closed form is not (1 - (1 - 2 eps)^N) / 2 "
                       f"with eps = rho_g[1] = {eps!r} in (0, 0.5)")
        if not all(0.0 <= e <= 1.0 for e in profile.errors.tolist()):
            bad.append("inversion error outside [0, 1]")
        return bad

    def run_check(self, results) -> list[str]:
        """The per-detuning xy4 Monte Carlo flips under one spin per operation,
        too few to test alone.  Pooled over the run, the spins in |g> after
        n_max sequences are a sum of independent Bernoulli variables whose
        mean the closed form gives (to within ~1%: it uses the mean eps)."""
        observed = sum(round(float(mc.rho_g_mc[-1]) * self.mc_spins) for _, _, mc in results)
        expected = sum(float(mc.rho_g[-1]) * self.mc_spins for _, _, mc in results)
        if chernoff_log_tail(observed, expected) < math.log(MC_FALSE_ALARM):
            return [f"xy4 per-detuning Monte Carlo: {observed} spins in |g> at "
                    f"N={self.mc_n_max} over {len(results)} operations, closed form "
                    f"expects {expected:.4g}"]
        return []

    def outputs(self, out_dir: Path, result) -> dict[str, bytes]:
        _, profile, mc = result
        out = _files(out_dir)
        out["inversion_profile.errors"] = profile.errors.tobytes()
        out["inversion_profile.mean_error"] = repr(profile.mean_error).encode()
        out["thermalization_mc.rho_g"] = mc.rho_g.tobytes()
        out["thermalization_mc.rho_g_mc"] = mc.rho_g_mc.tobytes()
        return out


WORKLOADS = {w.name: w for w in (DDRandomPhase(), MemoryChain(), PulseBudget())}
