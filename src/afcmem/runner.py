"""Experiment pipelines and deterministic result emission.

Each pipeline writes a self-describing report (the full parameter set plus
results) and pipeline-specific CSV traces.  Identical (config, seed) give
byte-identical files: no timestamps, fixed float formatting, sorted keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import afc, detection, sequences
from .config import SCHEMA_VERSION, ExperimentConfig
from .ensemble import coherence_1e_time

_FLOAT_FMT = "%.12g"  # '%.12g' % v == format(float(v), '.12g'), nan/inf/-0.0 included
_FLOAT_TYPES = (float, np.floating)


def _sanitize(obj):
    """Replace non-finite floats with None so reports stay valid JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_csv(path: Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_FLOAT_FMT % v if isinstance(v, _FLOAT_TYPES) else str(v)
                               for v in row]))
    path.write_text("\n".join(lines) + "\n")
    return path


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(obj, (np.floating, np.integer)):
        out[prefix] = obj.item()
    else:
        out[prefix] = obj


def _write_report(out_dir: Path, cfg: ExperimentConfig, results: dict) -> Path:
    parameters = asdict(cfg)
    parameters.pop("output_dir", None)  # location must not affect report bytes
    doc = _sanitize({"schema_version": SCHEMA_VERSION,
                     "pipeline": cfg.pipeline,
                     "parameters": parameters,
                     "results": results})
    if cfg.format == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
        return path
    flat: dict = {}
    _flatten("", doc, flat)
    return _write_csv(out_dir / "report.csv", ["key", "value"],
                      sorted(flat.items()))


def _chain_results(cfg: ExperimentConfig) -> dict:
    """Analytic efficiency and noise chain shared by the mode pipelines."""
    model = cfg.memory_model()
    t_s = cfg.sequence.t_s_s
    eta = afc.memory_efficiency(model, t_s, pulse=cfg.pulse.to_domain(), seed=cfg.seed)
    p_n = detection.noise_probability(cfg.noise, cfg.noise.residual_population)
    mu = cfg.detection.mu
    m1 = detection.mu1(p_n, eta)
    window = detection.quantum_regime_window(m1)
    return {
        "t_s_s": t_s,
        "mu": mu,
        "eta_model": eta,
        "mu_s": afc.spinwave_excitation(mu, model),
        "p_n_model": p_n,
        "snr_analytic": detection.snr_analytic(mu, eta, p_n),
        "mu1": m1,
        "quantum_window_lower": window.lower,
        "quantum_window_upper": window.upper,
        "quantum_window_empty": window.empty,
        "fidelity_bound_p1": detection.qubit_fidelity(m1, 1.0).fidelity,
        "spin_decay_fitted": cfg.memory.decay() is not None,
    }


def _simulate_mode(cfg: ExperimentConfig, results: dict, stream: int = 0):
    return detection.simulate_run(results["mu"], results["eta_model"],
                                  results["p_n_model"], cfg.detection.trials,
                                  cfg.detection.gate(), seed=cfg.seed, stream=stream)


def _write_histogram(path: Path, runs: list[detection.RunStatistics]) -> Path:
    header = ["bin_start_s"]
    for i in range(len(runs)):
        tag = f"_mode{i}" if len(runs) > 1 else ""
        header += [f"counts_with{tag}", f"counts_without{tag}"]
    rows = []
    edges = runs[0].bin_edges_s
    for b in range(edges.size - 1):
        row = [edges[b]]
        for run in runs:
            row += [int(run.counts_with[b]), int(run.counts_without[b])]
        rows.append(row)
    return _write_csv(path, header, rows)


def _write_comb_traces(out_dir: Path, cfg: ExperimentConfig) -> list[Path]:
    comb = afc.build_comb(cfg.comb)
    paths = [_write_csv(out_dir / "comb_spectrum.csv", ["frequency_hz", "depth"],
                        zip(comb.freq_hz.tolist(), comb.depth.tolist()))]
    delay = comb.config.afc_delay_s
    times = np.linspace(0.0, 2.0 * delay, 801)
    amps = afc.echo_trace(comb, times)
    paths.append(_write_csv(out_dir / "echo_trace.csv", ["time_s", "amplitude"],
                            zip(times.tolist(), amps.tolist())))
    return paths


def _run_single_mode(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> list[Path]:
    results = _chain_results(cfg)
    run = _simulate_mode(cfg, results)
    results["simulated"] = run.to_report()
    if fixtures:
        results["fixtures"] = fixtures
    paths = [_write_histogram(out_dir / "histogram.csv", [run])]
    paths += _write_comb_traces(out_dir, cfg)
    paths.append(_write_report(out_dir, cfg, results))
    return paths


def _run_multimode(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> list[Path]:
    timeline = afc.memory_timeline(cfg.comb.periodicity_hz, cfg.sequence.t_s_s,
                                   cfg.modes.n_modes, cfg.modes.mode_duration_s,
                                   cfg.modes.dead_time_fraction)
    results = _chain_results(cfg)
    runs = [_simulate_mode(cfg, results, stream=k) for k in range(cfg.modes.n_modes)]
    results["per_mode"] = [{"mode": k, "snr_simulated": run.snr.value,
                            "snr_stderr": run.snr.stderr}
                           for k, run in enumerate(runs)]
    results["snr_simulated_mean"] = float(np.mean([r.snr.value for r in runs]))
    results["timeline"] = {"afc_delay_s": timeline.afc_delay_s,
                           "total_s": timeline.total_s,
                           "n_modes": len(timeline.mode_slots)}
    if fixtures:
        results["fixtures"] = fixtures
    paths = [_write_csv(out_dir / "timeline.csv",
                        ["mode", "input_time_s", "output_time_s", "total_s"],
                        [(k, t_in, t_out, timeline.total_s)
                         for k, (t_in, t_out) in enumerate(timeline.mode_slots)])]
    paths.append(_write_histogram(out_dir / "histograms.csv", runs))
    paths += _write_comb_traces(out_dir, cfg)
    paths.append(_write_report(out_dir, cfg, results))
    return paths


def _run_thermalization(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> list[Path]:
    therm = cfg.thermalization
    eps_pulse = sequences.calibrate_systematic_error(therm.eps_xx, kind="xx",
                                                     t_s=cfg.sequence.t_s_s)
    pulse = cfg.pulse.to_domain()
    paths = []
    results = {"calibrated_pulse_error": eps_pulse, "n_max": therm.n_max}
    for stream, (kind, eps_fixture) in enumerate((("xx", therm.eps_xx),
                                                  ("xy4", therm.eps_xy4))):
        # Chirped inversion acts uniformly across the line, so the Monte
        # Carlo samples the measured per-sequence error for every spin.
        mc = sequences.thermalization_monte_carlo_uniform(
            eps_fixture, cfg.ensemble.n_spins, therm.n_max, seed=cfg.seed, stream=stream)
        rows = zip(mc.n_sequences.tolist(), mc.rho_g.tolist(),
                   mc.rho_g_mc.tolist(), mc.stderr.tolist())
        paths.append(_write_csv(out_dir / f"thermalization_{kind}.csv",
                                ["N", "rho_g_closed_form", "rho_g_monte_carlo", "stderr"],
                                rows))
        seq = sequences.build_sequence(kind, cfg.sequence.t_s_s,
                                       replace(pulse, systematic_error=eps_pulse))
        results[f"{kind}_eps_closed_form"] = eps_fixture
        results[f"{kind}_rho_g_50_closed_form"] = float(mc.rho_g[min(50, therm.n_max)])
        results[f"{kind}_composition_eps_per_sequence"] = float(
            sequences.sequence_population_error(seq))
    if fixtures:
        results["fixtures"] = fixtures
    paths.append(_write_report(out_dir, cfg, results))
    return paths


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> list[Path]:
    model = cfg.memory_model()
    pulse = cfg.pulse.to_domain()
    p_n = detection.noise_probability(cfg.noise, cfg.noise.residual_population)
    mu = cfg.detection.mu
    fixture_rows = {row["t_s_s"]: row for row in fixtures.get("rows", [])}
    header = ["t_s_s", "eta_model", "p_n_model", "snr_model", "mu1_model",
              "quantum_window_empty",
              "eta", "eta_err", "p_n", "p_n_err", "snr", "snr_err", "mu1", "mu1_err",
              "snr_check", "mu1_check"]
    rows = []
    report_rows = []
    for t_s in cfg.sweep.t_s_values_s:
        eta_model = afc.memory_efficiency(model, t_s, pulse=pulse, seed=cfg.seed)
        snr_model = detection.snr_analytic(mu, eta_model, p_n)
        mu1_model = detection.mu1(p_n, eta_model)
        window = detection.quantum_regime_window(mu1_model)
        row = [t_s, eta_model, p_n, snr_model, mu1_model, window.empty]
        fx = fixture_rows.get(t_s)
        if fx:
            snr_check = detection.snr_analytic(fixtures.get("mu", mu), fx["eta"], fx["p_n"])
            mu1_check = detection.mu1(fx["p_n"], fx["eta"])
            row += [fx["eta"], fx["eta_err"], fx["p_n"], fx["p_n_err"],
                    fx["snr"], fx["snr_err"], fx["mu1"], fx["mu1_err"],
                    snr_check, mu1_check]
        else:
            row += [math.nan] * 10
        rows.append(row)
        report_rows.append({"t_s_s": t_s, "eta_model": eta_model,
                            "snr_model": snr_model, "mu1_model": mu1_model})
    results = {"mu": mu, "p_n_model": p_n, "rows": report_rows,
               "spin_decay_fitted": cfg.memory.decay() is not None,
               "envelope_no_dd_1e_s": coherence_1e_time(cfg.ensemble)}
    if fixtures:
        results["fixtures"] = fixtures
    paths = [_write_csv(out_dir / "table.csv", header, rows)]
    paths.append(_write_report(out_dir, cfg, results))
    return paths


def _run_random_phase(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> list[Path]:
    rp = cfg.random_phase
    eps_pulse = sequences.calibrate_systematic_error(cfg.thermalization.eps_xx, kind="xx",
                                                     t_s=cfg.sequence.t_s_s)
    pulse = replace(cfg.pulse.to_domain(), systematic_error=eps_pulse)
    curves = {}
    results = {"tilt": rp.tilt, "n_max": rp.n_max, "calibrated_pulse_error": eps_pulse,
               "final_rho_g": {}}
    for kind in rp.kinds:
        seq = sequences.build_sequence(kind, cfg.sequence.t_s_s, pulse)
        study = sequences.random_phase_population_study(
            seq, cfg.ensemble, cfg.ensemble.n_spins, rp.n_max, tilt=rp.tilt, seed=cfg.seed)
        curves[kind] = study.rho_g
        results["final_rho_g"][kind] = float(study.rho_g[-1])
    header = ["N"] + [f"rho_g_{kind}" for kind in rp.kinds]
    rows = [[n] + [curves[kind][n] for kind in rp.kinds] for n in range(rp.n_max + 1)]
    paths = [_write_csv(out_dir / "random_phase.csv", header, rows)]
    paths.append(_write_report(out_dir, cfg, results))
    return paths


_PIPELINES = {
    "single_mode": _run_single_mode,
    "multimode": _run_multimode,
    "thermalization": _run_thermalization,
    "sweep": _run_sweep,
    "random_phase": _run_random_phase,
}


def run_experiment(cfg: ExperimentConfig, fixtures: dict | None = None,
                   out_dir: str | Path | None = None) -> list[Path]:
    """Execute the configured pipeline; returns the written file paths."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _PIPELINES[cfg.pipeline](cfg, out, fixtures or {})
