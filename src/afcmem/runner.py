"""Experiment pipelines and deterministic result emission.

Each pipeline writes its CSV traces and returns its results; run_experiment
then writes the self-describing report last (the full parameter set, the
results, and the preset's fixtures when it has any).  Identical (config,
seed) give byte-identical files: no timestamps, fixed float formatting,
sorted keys.  The comb's two trace files depend on the comb config alone;
their texts are formatted once per comb config and kept for the next run
in the process, one comb's at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import afc, detection, sequences
from .config import SCHEMA_VERSION, ExperimentConfig
from .ensemble import coherence_1e_time, draw_detunings
from .pulses import PulseSpec

_FLOAT_FMT = "%.12g"  # '%.12g' % v == format(float(v), '.12g'), nan/inf/-0.0 included
_FLOAT_TYPES = (float, np.floating)

# What a pipeline returns: the trace files it wrote, and its results.
_PipelineOutput = tuple[list[Path], dict]


def _plain(obj):
    """Plain values for a report, in one walk: every numpy scalar (np.bool_
    included) becomes its Python equivalent, a non-finite float None, a dict
    a dict, a list or tuple a list, and a dataclass the dict of its fields."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _column_cells(column) -> tuple[str, list]:
    """(row-template field, cell values) of one CSV column.

    A float array is formatted by the template itself, with _FLOAT_FMT, and
    an integer or bool array with "%s" (which is str for an int or a bool);
    any other column (strings, Python lists, mixed report values) is
    formatted cell by cell: floats with _FLOAT_FMT, anything else with str.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _FLOAT_FMT, column.tolist()
        if column.dtype.kind in "biu":
            return "%s", column.tolist()
        column = column.tolist()
    return "%s", [_FLOAT_FMT % v if isinstance(v, _FLOAT_TYPES) else str(v) for v in column]


def _csv_text(columns: dict) -> str:
    """Equal-length columns, headed by their names, as one % over a row
    template repeated once per row."""
    fields, cells = zip(*map(_column_cells, columns.values()))
    width, n_rows = len(cells), len(cells[0])
    flat = [None] * (width * n_rows)
    for j, column in enumerate(cells):
        flat[j::width] = column  # a column of another length raises ValueError
    rows = (",".join(fields) + "\n") * n_rows
    return ",".join(columns) + "\n" + rows % tuple(flat)


def _write_csv(path: Path, columns: dict) -> Path:
    path.write_text(_csv_text(columns))
    return path


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = obj


def _write_report(out_dir: Path, cfg: ExperimentConfig, results: dict) -> Path:
    parameters = _plain(cfg)
    parameters.pop("output_dir", None)  # location must not affect report bytes
    doc = {"schema_version": SCHEMA_VERSION, "pipeline": cfg.pipeline,
           "parameters": parameters, "results": _plain(results)}
    if cfg.format == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
        return path
    flat: dict = {}
    _flatten("", doc, flat)
    keys = sorted(flat)
    return _write_csv(out_dir / "report.csv", {"key": keys, "value": [flat[k] for k in keys]})


def _chain_results(cfg: ExperimentConfig, t_s: float) -> dict:
    """Analytic efficiency and noise chain at storage time t_s."""
    eta = afc.memory_efficiency(cfg.memory, cfg.comb, cfg.ensemble, cfg.sequence.kind, t_s,
                                pulse=cfg.pulse, seed=cfg.seed)
    p_n = detection.noise_probability(cfg.noise)
    mu = cfg.detection.mu
    m1 = detection.mu1(p_n, eta)
    window = detection.quantum_regime_window(m1)
    return {
        "t_s_s": t_s,
        "mu": mu,
        "eta_model": eta,
        "mu_s": afc.spinwave_excitation(mu, cfg.memory),
        "p_n_model": p_n,
        "snr_analytic": detection.snr_analytic(mu, eta, p_n),
        "mu1": m1,
        "quantum_window_lower": window.lower,
        "quantum_window_upper": window.upper,
        "quantum_window_empty": window.empty,
        "fidelity_bound_p1": detection.qubit_fidelity(m1, 1.0).fidelity,
        "spin_decay_fitted": cfg.memory.spin_decay_fitted,
    }


def _simulate_mode(cfg: ExperimentConfig, results: dict, stream: int = 0):
    return detection.simulate_run(cfg.detection, results["eta_model"], results["p_n_model"],
                                  seed=cfg.seed, stream=stream)


def _write_histogram(path: Path, runs: list[detection.RunStatistics]) -> Path:
    columns = {"bin_start_s": runs[0].bin_edges_s[:-1]}
    for i, run in enumerate(runs):
        tag = f"_mode{i}" if len(runs) > 1 else ""
        columns[f"counts_with{tag}"] = run.counts_with
        columns[f"counts_without{tag}"] = run.counts_without
    return _write_csv(path, columns)


# The texts of comb_spectrum.csv and echo_trace.csv for the last comb config
# written, so a process that runs one comb again (over seeds or storage times)
# samples, traces and formats it once.  At most one entry.
_COMB_TEXTS: dict[afc.CombConfig, tuple[str, str]] = {}


def _write_comb_traces(out_dir: Path, cfg: ExperimentConfig) -> list[Path]:
    """Write the comb's spectrum and echo trace, from _COMB_TEXTS when it
    holds this comb.  A miss drops the held texts before it builds the new
    comb, so two combs' texts never coexist: what the memo adds to a
    process's memory is one comb's texts, under 40 MB at the grid bound
    (see afc.MAX_COMB_GRID_POINTS)."""
    texts = _COMB_TEXTS.get(cfg.comb)
    if texts is None:
        _COMB_TEXTS.clear()
        comb = afc.build_comb(cfg.comb)
        times = np.linspace(0.0, 2.0 * comb.config.afc_delay_s, 801)
        texts = _COMB_TEXTS[cfg.comb] = (
            _csv_text({"frequency_hz": comb.freq_hz, "depth": comb.depth}),
            _csv_text({"time_s": times, "amplitude": afc.echo_trace(comb, times)}))
    paths = [out_dir / "comb_spectrum.csv", out_dir / "echo_trace.csv"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


def _calibrated_pulse(cfg: ExperimentConfig) -> PulseSpec:
    """The configured pulse with the per-pulse error that makes the xx
    sequence reproduce the measured per-sequence error eps_xx."""
    eps = sequences.calibrate_systematic_error(cfg.thermalization.eps_xx)
    return replace(cfg.pulse, systematic_error=eps)


def _run_single_mode(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> _PipelineOutput:
    results = _chain_results(cfg, cfg.sequence.t_s_s)
    run = _simulate_mode(cfg, results)
    results["simulated"] = run.to_report()
    paths = [_write_histogram(out_dir / "histogram.csv", [run])]
    return paths + _write_comb_traces(out_dir, cfg), results


def _run_multimode(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> _PipelineOutput:
    timeline = afc.memory_timeline(cfg.modes, cfg.comb.periodicity_hz, cfg.sequence.t_s_s)
    results = _chain_results(cfg, cfg.sequence.t_s_s)
    detection.check_run_photons(results["mu"], results["eta_model"], results["p_n_model"],
                                cfg.modes.n_modes * cfg.detection.trials,
                                "detection.trials or modes.n_modes")
    runs = [_simulate_mode(cfg, results, stream=k) for k in range(cfg.modes.n_modes)]
    results["per_mode"] = [{"mode": k, "snr_simulated": run.snr.value,
                            "snr_stderr": run.snr.stderr}
                           for k, run in enumerate(runs)]
    results["snr_simulated_mean"] = float(np.mean([r.snr.value for r in runs]))
    results["timeline"] = {"afc_delay_s": timeline.afc_delay_s,
                           "total_s": timeline.total_s,
                           "n_modes": len(timeline.mode_slots)}
    t_in, t_out = zip(*timeline.mode_slots)
    paths = [_write_csv(out_dir / "timeline.csv",
                        {"mode": range(len(t_in)), "input_time_s": t_in, "output_time_s": t_out,
                         "total_s": [timeline.total_s] * len(t_in)})]
    paths.append(_write_histogram(out_dir / "histograms.csv", runs))
    return paths + _write_comb_traces(out_dir, cfg), results


def _run_thermalization(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> _PipelineOutput:
    therm = cfg.thermalization
    pulse = _calibrated_pulse(cfg)
    paths = []
    results = {"calibrated_pulse_error": pulse.systematic_error, "n_max": therm.n_max}
    for stream, (kind, eps_fixture) in enumerate((("xx", therm.eps_xx),
                                                  ("xy4", therm.eps_xy4))):
        # Chirped inversion acts uniformly across the line, so the Monte
        # Carlo samples the measured per-sequence error for every spin.
        mc = sequences.thermalization_monte_carlo_uniform(
            eps_fixture, cfg.ensemble.n_spins, therm.n_max, seed=cfg.seed, stream=stream)
        paths.append(_write_csv(out_dir / f"thermalization_{kind}.csv",
                                {"N": mc.n_sequences, "rho_g_closed_form": mc.rho_g,
                                 "rho_g_monte_carlo": mc.rho_g_mc, "stderr": mc.stderr}))
        seq = sequences.build_sequence(kind, cfg.sequence.t_s_s, pulse)
        results[f"{kind}_eps_closed_form"] = eps_fixture
        results[f"{kind}_rho_g_50_closed_form"] = float(mc.rho_g[min(50, therm.n_max)])
        results[f"{kind}_composition_eps_per_sequence"] = float(
            sequences.sequence_population_error(seq))
    return paths, results


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> _PipelineOutput:
    mu = cfg.detection.mu
    fixture_rows = {row["t_s_s"]: row for row in fixtures.get("rows", [])}
    chains = [_chain_results(cfg, t_s) for t_s in cfg.sweep.t_s_values_s]
    measured = [fixture_rows.get(c["t_s_s"]) for c in chains]
    columns = {name: [c[key] for c in chains]
               for name, key in (("t_s_s", "t_s_s"), ("eta_model", "eta_model"),
                                 ("p_n_model", "p_n_model"), ("snr_model", "snr_analytic"),
                                 ("mu1_model", "mu1"),
                                 ("quantum_window_empty", "quantum_window_empty"))}
    for key in ("eta", "eta_err", "p_n", "p_n_err", "snr", "snr_err", "mu1", "mu1_err"):
        columns[key] = [fx[key] if fx else math.nan for fx in measured]
    columns["snr_check"] = [
        detection.snr_analytic(fixtures.get("mu", mu), fx["eta"], fx["p_n"]) if fx else math.nan
        for fx in measured]
    columns["mu1_check"] = [detection.mu1(fx["p_n"], fx["eta"]) if fx else math.nan
                            for fx in measured]
    results = {"mu": mu, "p_n_model": chains[0]["p_n_model"],
               "rows": [{"t_s_s": c["t_s_s"], "eta_model": c["eta_model"],
                         "snr_model": c["snr_analytic"], "mu1_model": c["mu1"]}
                        for c in chains],
               "spin_decay_fitted": cfg.memory.spin_decay_fitted,
               "envelope_no_dd_1e_s": coherence_1e_time(cfg.ensemble)}
    return [_write_csv(out_dir / "table.csv", columns)], results


def _run_random_phase(cfg: ExperimentConfig, out_dir: Path, fixtures: dict) -> _PipelineOutput:
    rp = cfg.random_phase
    pulse = _calibrated_pulse(cfg)
    det = draw_detunings(cfg.ensemble, cfg.ensemble.n_spins, cfg.seed)
    seqs = [sequences.build_sequence(kind, cfg.sequence.t_s_s, pulse) for kind in rp.kinds]
    rho = sequences.random_phase_population_study(seqs, det, np.full(det.size, 1.0 / det.size),
                                                  rp.n_max, tilt=rp.tilt, seed=cfg.seed)
    columns = {"N": range(rp.n_max + 1)}
    results = {"tilt": rp.tilt, "n_max": rp.n_max,
               "calibrated_pulse_error": pulse.systematic_error, "final_rho_g": {}}
    for kind, rho_g in zip(rp.kinds, rho):
        columns[f"rho_g_{kind}"] = rho_g
        results["final_rho_g"][kind] = float(rho_g[-1])
    return [_write_csv(out_dir / "random_phase.csv", columns)], results


_PIPELINES = {
    "single_mode": _run_single_mode,
    "multimode": _run_multimode,
    "thermalization": _run_thermalization,
    "sweep": _run_sweep,
    "random_phase": _run_random_phase,
}


def run_experiment(cfg: ExperimentConfig, fixtures: dict | None = None,
                   out_dir: str | Path | None = None) -> list[Path]:
    """Execute the configured pipeline and write its report last, with the
    preset's fixtures embedded when there are any; returns the written
    file paths, the report's at the end."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths, results = _PIPELINES[cfg.pipeline](cfg, out, fixtures or {})
    if fixtures:
        results["fixtures"] = fixtures
    return paths + [_write_report(out, cfg, results)]
