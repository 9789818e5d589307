import dataclasses
import gc
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afcmem.cli import main
from afcmem.config import (ExperimentConfig, load_config, load_preset, parse_config,
                           preset_names, validate_config)
from afcmem.errors import ConfigError

ALL_PRESETS = ["fig1d", "fig2a", "fig2b", "fig2c", "random_phase", "table1"]

# Wrong types, non-finite and huge numbers, empty and odd containers, and a
# huge integer, which every count that sizes an array must refuse before
# allocating.
VALUE_POOL = [None, True, -1, 0, 1, 0.5, 1e308, -1e308, math.nan, math.inf, "x", [], [0.0],
              [math.inf], {}, 2 ** 40]


def _config_fields():
    """(section, field) for every section field; (None, field) at the top level."""
    for f in dataclasses.fields(ExperimentConfig):
        if f.default_factory is dataclasses.MISSING:
            yield None, f.name
        else:
            yield from ((f.name, g.name) for g in dataclasses.fields(f.default_factory))


CONFIG_FIELDS = list(_config_fields())


# Every settable key: (section, key, annotation, default), section None at the
# top level.  A change that adds, drops or retypes a setting shows up here.
SCHEMA = [
    (None, "pipeline", "str", "single_mode"),
    (None, "seed", "int", 12345),
    (None, "output_dir", "str", "results"),
    (None, "format", "str", "csv"),
    ("ensemble", "shape", "str", "gaussian"),
    ("ensemble", "fwhm_hz", "float", 27000.0),
    ("ensemble", "n_spins", "int", 10000),
    ("pulse", "systematic_error", "float", 0.01),
    ("pulse", "jitter_sd", "float", 0.0),
    ("pulse", "rabi_hz", "float | None", None),
    ("adiabatic", "peak_rabi_hz", "float", 30000.0),
    ("adiabatic", "chirp_span_hz", "float", 200000.0),
    ("adiabatic", "duration_s", "float", 0.0005),
    ("adiabatic", "envelope", "str", "sech"),
    ("sequence", "kind", "str | None", "xy4"),
    ("sequence", "t_s_s", "float", 0.0005),
    ("comb", "periodicity_hz", "float", 100000.0),
    ("comb", "finesse", "float", 4.0),
    ("comb", "width_hz", "float", 2000000.0),
    ("comb", "optical_depth", "float", 2.6),
    ("comb", "passes", "int", 2),
    ("comb", "background_depth", "float", 0.0),
    ("memory", "conversion_efficiency", "float", 0.5),
    ("memory", "write_stage", "float", 0.5),
    ("memory", "readout_loss", "float", 0.0),
    ("memory", "spin_decay_tau_s", "float | None", None),
    ("memory", "spin_decay_exponent", "float | None", None),
    ("noise", "optical_readout_noise", "float", 0.005),
    ("noise", "residual_coupling", "float", 1.0),
    ("noise", "detector_dark", "float", 0.0),
    ("noise", "excess", "float", 0.0),
    ("noise", "residual_population", "float", 0.002),
    ("detection", "mu", "float", 2.0),
    ("detection", "trials", "int", 100000),
    ("detection", "gate_duration_s", "float", 2e-06),
    ("detection", "gate_bins", "int", 40),
    ("thermalization", "n_max", "int", 120),
    ("thermalization", "eps_xx", "float", 0.036),
    ("thermalization", "eps_xy4", "float", 0.002),
    ("modes", "n_modes", "int", 5),
    ("modes", "mode_duration_s", "float", 1.5e-06),
    ("modes", "dead_time_fraction", "float", 0.2),
    ("sweep", "t_s_values_s", "tuple[float, ...]",
     (0.00025, 0.0005, 0.00075, 0.001, 0.00125, 0.0015)),
    ("random_phase", "n_max", "int", 50),
    ("random_phase", "tilt", "float", 0.1),
    ("random_phase", "kinds", "tuple[str, ...]", ("xx", "xy4", "xy8", "kdd")),
]


class TestParsing:
    def test_schema_is_pinned(self):
        rows = []
        for f in dataclasses.fields(ExperimentConfig):
            if f.default_factory is dataclasses.MISSING:
                rows.append((None, f.name, f.type, f.default))
            else:
                rows += [(f.name, g.name, g.type, g.default)
                         for g in dataclasses.fields(f.default_factory)]
        assert rows == SCHEMA

    def test_defaults_are_valid(self):
        cfg, diags = parse_config({})
        assert diags == []
        assert validate_config(cfg) == []

    def test_unknown_top_level_key(self):
        _, diags = parse_config({"simulate": True})
        assert any(d.path == "simulate" for d in diags)

    def test_unknown_nested_key(self):
        _, diags = parse_config({"comb": {"finness": 3.0}})
        assert any(d.path == "comb.finness" for d in diags)

    def test_finesse_bound_diagnostic(self):
        cfg, diags = parse_config({"comb": {"finesse": 0.5}})
        diags += validate_config(cfg)
        assert any("finesse" in str(d) and "comb" in d.path for d in diags)

    def test_sequence_timing_diagnostic(self):
        cfg, diags = parse_config({"sequence": {"t_s_s": -1.0}})
        diags += validate_config(cfg)
        assert any("t_s_s" in str(d) for d in diags)

    def test_unset_sections_are_shared_defaults(self):
        a, _ = load_config("random_phase", {"seed": 1})
        b, _ = load_config("random_phase", {"seed": 2})
        for name in ("pulse", "adiabatic", "comb", "memory", "noise", "detection",
                     "thermalization", "modes", "sweep"):
            assert getattr(a, name) is getattr(b, name), name
            assert getattr(a, name) == getattr(ExperimentConfig(), name), name
        assert a.ensemble is not b.ensemble  # the preset sets it

    def test_preset_copies_are_independent(self):
        doc = load_preset("fig1d")
        doc["fixtures"].clear()
        doc["config"]["seed"] = -1
        again = load_preset("fig1d")
        assert again["fixtures"] and again["config"]["seed"] != -1

    def test_kept_config_costs_little_memory(self):
        # a caller that keeps its configs (a benchmark's results) keeps only the
        # sections each one sets, and shares the preset's strings and numbers:
        # about 420 bytes per random_phase config
        for seed in range(50):  # warm the interpreter's caches and free lists
            load_config("random_phase", {"seed": seed})
        kept = []
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(500):
                kept.append(load_config("random_phase", {"seed": seed})[0])
            gc.collect()
            per_config = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_config <= 1200, f"{per_config:.0f} bytes a config"

    def test_all_violations_reported(self):
        cfg, diags = parse_config({"comb": {"finesse": 0.5},
                                   "sequence": {"t_s_s": -1.0},
                                   "pipeline": "party"})
        diags += validate_config(cfg)
        paths = {d.path for d in diags}
        assert {"comb", "sequence", "pipeline"} <= paths


class TestPresets:
    def test_names(self):
        assert preset_names() == ALL_PRESETS

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_validate(self, name):
        cfg, _ = load_config(name)
        assert validate_config(cfg) == []

    def test_unknown_preset_lists_valid_ones(self):
        with pytest.raises(ConfigError) as exc:
            load_preset("fig9z")
        msg = str(exc.value)
        for name in ALL_PRESETS:
            assert name in msg

    def test_table1_sweep_values(self):
        cfg, _ = load_config("table1")
        assert list(cfg.sweep.t_s_values_s) == [0.25e-3, 0.5e-3, 0.75e-3, 1.0e-3, 1.25e-3, 1.5e-3]

    def test_config_file_with_preset_base(self, tmp_path):
        doc = {"preset": "fig2b", "seed": 99, "detection": {"trials": 1234}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg, fixtures = load_config(str(path))
        assert cfg.seed == 99
        assert cfg.detection.trials == 1234
        assert cfg.memory.conversion_efficiency == 0.5  # inherited
        assert fixtures["eta"]["value"] == 0.051

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestPresetCalibrations:
    def test_fig2a_reproduces_measured_efficiency(self):
        from afcmem import memory_efficiency, mu1, snr_analytic
        cfg, fixtures = load_config("fig2a")
        eta = memory_efficiency(cfg.memory, cfg.comb, cfg.ensemble, cfg.sequence.kind,
                                cfg.sequence.t_s_s, pulse=cfg.pulse.to_domain())
        assert eta == pytest.approx(0.057, abs=1e-9)
        assert abs(snr_analytic(1.1, eta, 0.005) - fixtures["snr"]["value"]) <= fixtures["snr"]["err"]
        assert abs(mu1(0.005, eta) - fixtures["mu1"]["value"]) <= fixtures["mu1"]["err"]

    def test_fig2b_chain(self):
        from afcmem import memory_efficiency, noise_probability, spinwave_excitation
        cfg, _ = load_config("fig2b")
        eta = memory_efficiency(cfg.memory, cfg.comb, cfg.ensemble, cfg.sequence.kind, 0.5e-3,
                                pulse=cfg.pulse.to_domain())
        assert abs(eta - 0.051) <= 0.004
        assert spinwave_excitation(2.0, cfg.memory) == pytest.approx(1.0)
        p_n = noise_probability(cfg.noise)
        assert abs(p_n - 0.010) <= 0.002

    def test_fig2c_per_mode_figures(self):
        from afcmem import memory_efficiency, noise_probability, snr_analytic
        cfg, fixtures = load_config("fig2c")
        eta = memory_efficiency(cfg.memory, cfg.comb, cfg.ensemble, cfg.sequence.kind, 0.5e-3,
                                pulse=cfg.pulse.to_domain())
        assert abs(eta - fixtures["eta"]["value"]) <= fixtures["eta"]["err"]
        p_n = noise_probability(cfg.noise)
        snr = snr_analytic(2.0, eta, p_n)
        assert abs(snr - fixtures["snr"]["value"]) <= fixtures["snr"]["err"]

    def test_table1_decay_anchors(self):
        from afcmem import memory_efficiency
        cfg, _ = load_config("table1")
        parts = (cfg.memory, cfg.comb, cfg.ensemble, cfg.sequence.kind)
        pulse = cfg.pulse.to_domain()
        eta_05 = memory_efficiency(*parts, 0.5e-3, pulse=pulse)
        eta_15 = memory_efficiency(*parts, 1.5e-3, pulse=pulse)
        assert 0.047 <= eta_05 <= 0.055
        assert 0.009 <= eta_15 <= 0.011

    def test_table1_decay_is_labeled_fitted(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["run", "table1", "--out", str(out), "--format", "json"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["spin_decay_fitted"] is True


class TestCli:
    def test_unknown_preset_exit_2(self, capsys):
        code = main(["run", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        for name in ALL_PRESETS:
            assert name in err

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"comb": {"finesse": 0.2}}))
        assert main(["run", str(path)]) == 2
        assert "finesse" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert main(["run", "fig2a", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_boolean_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "seed": True}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset,override,needle", [
        ("random_phase", {"random_phase": {"n_max": 2.5}}, "n_max"),
        ("fig1d", {"thermalization": {"n_max": 2.5}}, "n_max"),
        ("fig1d", {"ensemble": {"n_spins": 100.5}}, "n_spins"),
        ("random_phase", {"random_phase": {"n_max": True}}, "n_max"),
        ("random_phase", {"random_phase": {"kinds": "xx"}}, "random_phase.kinds"),
        ("random_phase", {"random_phase": {"kinds": ["xx", "xx"]}}, "repeat"),
        ("random_phase", {"random_phase": {"kinds": []}}, "at least one"),
        ("fig2c", {"modes": {"n_modes": 1.5}}, "n_modes"),
        ("fig2a", {"detection": {"trials": 1e3}}, "trials"),
        ("fig2a", {"detection": {"mu": "2"}}, "detection.mu"),
        ("table1", {"memory": {"spin_decay_tau_s": "2"}}, "memory.spin_decay_tau_s"),
        ("table1", {"pulse": {"systematic_error": None}}, "pulse.systematic_error"),
        ("fig1d", {"random_phase": {"tilt": {"a": 1}}}, "random_phase.tilt"),
        ("fig2a", {"comb": {"periodicity_hz": True}}, "comb.periodicity_hz"),
        ("table1", {"sweep": {"t_s_values_s": [1e-3, math.inf]}}, "sweep.t_s_values_s"),
        ("fig2a", {"detection": {"mu": 10 ** 400}}, "detection.mu"),
        ("fig2a", {"memory": {"spin_decay_tau_s": 1e-3}}, "given together"),
        ("table1", {"memory": {"spin_decay_tau_s": 0}}, "memory: spin_decay_tau_s must be > 0"),
        ("table1", {"memory": {"spin_decay_exponent": -1}},
         "memory: spin_decay_exponent must be > 0"),
        ("fig2a", {"detection": {"gate_duration_s": 0}},
         "detection: gate_duration_s must be > 0"),
        ("fig2b", {"noise": {"residual_population": 0.6}},
         "noise: residual_population must be in [0, 0.5]"),
    ], ids=["rp_n_max_float", "therm_n_max_float", "n_spins_float", "rp_n_max_bool",
            "kinds_string", "kinds_repeated", "kinds_empty", "n_modes_float",
            "trials_float", "mu_string", "decay_string", "pulse_null", "tilt_object",
            "comb_bool", "sweep_inf_item", "mu_int_past_float_range", "decay_tau_alone",
            "decay_tau_zero", "decay_exponent_negative", "gate_duration_zero",
            "residual_population_above_half"])
    def test_malformed_count_or_kinds_exit_2(self, tmp_path, capsys, preset, override, needle):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(override, preset=preset)))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mu_exit_2(self, tmp_path, capsys, mu):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "detection": {"mu": mu}}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "mu" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset,override,code,needle", [
        ("fig2a", {"comb": {"finesse": 1e308}}, 2, "comb: the tooth FWHM"),
        ("fig2c", {"pulse": {"systematic_error": 1e308}}, 2, "systematic_error"),
        ("fig2c", {"pulse": {"systematic_error": -1e308}}, 2, "systematic_error"),
        ("table1", {"pulse": {"jitter_sd": 1e308}}, 2, "jitter_sd"),
        ("table1", {"comb": {"background_depth": 1e308}}, 2, "background_depth"),
        ("fig2c", {"comb": {"background_depth": 1e308}}, 2, "background_depth"),
        ("fig2a", {"detection": {"mu": 1e308}}, 3, "photons"),
        ("table1", {"memory": {"spin_decay_exponent": 1e308}}, 3, "eta = 0"),
        ("fig2c", {"pulse": {"rabi_hz": 1e308}}, 2, "pulse: rabi_hz"),
        ("fig2b", {"pulse": {"rabi_hz": 1e-305}}, 2, "pulse: rabi_hz"),
        ("fig2a", {"ensemble": {"fwhm_hz": 1e308}}, 2, "ensemble: fwhm_hz"),
        ("table1", {"sequence": {"t_s_s": 1e308}}, 2, "sequence: t_s_s"),
        ("table1", {"sweep": {"t_s_values_s": [1e-3, 1e308]}}, 2, "sweep: t_s_values_s"),
    ], ids=["finesse", "pulse_error", "pulse_error_negative", "jitter", "background_table1",
            "background_fig2c", "mu", "decay_exponent", "rabi_hz", "rabi_hz_tiny", "fwhm_hz",
            "t_s_s", "t_s_values_s"])
    def test_huge_finite_value_exit_2_or_3(self, tmp_path, capsys, preset, override, code,
                                           needle):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(override, preset=preset)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no overflow on the way to the exit
            assert main(["validate", str(path)]) == (2 if code == 2 else 0)
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
        assert needle in capsys.readouterr().err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(preset=st.sampled_from(ALL_PRESETS), where=st.sampled_from(CONFIG_FIELDS),
           value=st.sampled_from(VALUE_POOL))
    def test_any_pool_value_in_any_field_exits_0_2_or_3(self, tmp_path, preset, where, value):
        section, name = where
        doc = {"preset": preset, **({section: {name: value}} if section else {name: value})}
        with tempfile.TemporaryDirectory(dir=tmp_path) as d:
            path = Path(d) / "cfg.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) in (0, 2, 3)
            assert main(["run", str(path), "--out", str(Path(d) / "out")]) in (0, 2, 3)

    def test_non_string_output_dir_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("AFCMEM_OUT", raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "output_dir": None}))
        assert main(["run", str(path)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_directory_named_like_preset_is_not_a_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig2a").mkdir()
        (tmp_path / "cfg.json").mkdir()
        assert main(["validate", "fig2a"]) == 0
        assert main(["validate", "cfg.json"]) == 2
        assert "cfg.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_noise_budget_above_one_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "noise": {"detector_dark": 1}}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "noise" in err and "exceed 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_comb_grid_exit_2_without_building_it(self, tmp_path, monkeypatch,
                                                            capsys, command):
        import afcmem.afc

        def refuse(cfg):
            raise AssertionError("build_comb was called")

        monkeypatch.setattr(afcmem.afc, "build_comb", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "comb": {"periodicity_hz": 1}}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "comb" in err and "200000201 grid points" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("comb,fwhm", [
        ({"periodicity_hz": 5e-324}, "0"),
        ({"periodicity_hz": 1e-24, "finesse": 1e300}, "0"),
        ({"periodicity_hz": 1e-300}, "2.5e-301"),
    ], ids=["denormal_period", "huge_finesse", "tiny_period"])
    def test_sub_floor_tooth_width_exit_2(self, tmp_path, capsys, command, comb, fwhm):
        # a tooth FWHM that underflows to 0 once ended in a ZeroDivisionError traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "comb": comb}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"error: comb: the tooth FWHM, periodicity_hz / finesse, must be >= 0.001 Hz, "
                f"got {fwhm}\n") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_comb_build_work_exit_2_without_building_it(self, tmp_path, monkeypatch, capsys,
                                                        command):
        import afcmem.afc

        def refuse(cfg):
            raise AssertionError("build_comb was called")

        monkeypatch.setattr(afcmem.afc, "build_comb", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a",
                                    "comb": {"periodicity_hz": 50, "finesse": 1.01}}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "comb" in err and "40001 teeth over 1010201 grid points" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_random_phase_work_exit_2_without_running(self, tmp_path, monkeypatch, capsys,
                                                      command):
        import afcmem.sequences

        def refuse(*args, **kwargs):
            raise AssertionError("random_phase_population_study was called")

        monkeypatch.setattr(afcmem.sequences, "random_phase_population_study", refuse)
        path = tmp_path / "cfg.json"
        # each count within its own bound; their product is 2^38 spin-repetitions
        path.write_text(json.dumps({"preset": "random_phase",
                                    "ensemble": {"n_spins": 2 ** 20},
                                    "random_phase": {"n_max": 2 ** 18}}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert "random_phase: 1048576 spins x 262144 repetitions" in err
        assert not (tmp_path / "out").exists()

    def test_random_phase_work_at_the_bound_is_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        for n_max, code in ((64, 0), (65, 2)):  # 2^20 spins x 64 is the bound, 2^26
            path.write_text(json.dumps({"preset": "random_phase",
                                        "ensemble": {"n_spins": 2 ** 20},
                                        "random_phase": {"n_max": n_max}}))
            assert main(["validate", str(path)]) == code
        # the bound weighs only the pipeline that does the work
        path.write_text(json.dumps({"preset": "fig1d", "ensemble": {"n_spins": 2 ** 20},
                                    "random_phase": {"n_max": 2 ** 18}}))
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("override,needle", [
        # each count within its own bound; each mode keeps its own histograms,
        # so 2^14 modes x 2^18 bins would hold 2^32 bins per histogram
        ({"modes": {"n_modes": 2 ** 14, "mode_duration_s": 1e-12},
          "detection": {"gate_bins": 2 ** 18}},
         "error: modes: 16384 modes x 262144 gate bins is more than the 262144"),
        # six 1.5 us modes in the 8 us window of a 100 kHz comb
        ({"modes": {"n_modes": 6}},
         "error: modes: usable input window exceeded: n_modes * mode_duration = 9e-06 s"),
        # five 1.5 us modes in the 4 us window of a 200 kHz comb
        ({"comb": {"periodicity_hz": 200000.0}},
         "error: modes: usable input window exceeded: n_modes * mode_duration = 7.5e-06 s"),
    ], ids=["bins", "n_modes", "periodicity"])
    def test_overfull_multimode_exit_2_without_counting(self, tmp_path, monkeypatch, capsys,
                                                        override, needle, command):
        import afcmem.detection

        def refuse(*args, **kwargs):
            raise AssertionError("simulate_run was called")

        monkeypatch.setattr(afcmem.detection, "simulate_run", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(override, preset="fig2c")))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert not (tmp_path / "out").exists()

    def test_multimode_histogram_bins_at_the_bound_are_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        for n_modes, code in ((64, 0), (65, 2)):  # 64 modes x 2^12 bins is the bound, 2^18
            path.write_text(json.dumps({"preset": "fig2c",
                                        "modes": {"n_modes": n_modes, "mode_duration_s": 1e-9},
                                        "detection": {"gate_bins": 2 ** 12}}))
            assert main(["validate", str(path)]) == code
        # the bound weighs only the pipeline that keeps a histogram per mode
        path.write_text(json.dumps({"preset": "fig2a", "modes": {"n_modes": 2 ** 14},
                                    "detection": {"gate_bins": 2 ** 18}}))
        assert main(["validate", str(path)]) == 0
        # and so does the input window: single_mode reads no modes
        path.write_text(json.dumps({"preset": "fig2a", "comb": {"periodicity_hz": 200000.0}}))
        assert main(["validate", str(path)]) == 0

    def test_multimode_photons_exit_3_without_counting(self, tmp_path, monkeypatch, capsys):
        import afcmem.detection

        def refuse(*args, **kwargs):
            raise AssertionError("simulate_run was called")

        monkeypatch.setattr(afcmem.detection, "simulate_run", refuse)
        path = tmp_path / "cfg.json"
        # each mode expects about 3.2e5 photons, within MAX_RUN_PHOTONS; the
        # 2^14 modes together expect about 5.2e9.  validate cannot see eta,
        # so the bound is checked when the run has it
        path.write_text(json.dumps({"preset": "fig2c",
                                    "modes": {"n_modes": 2 ** 14, "mode_duration_s": 1e-12},
                                    "detection": {"trials": 4_000_000, "gate_bins": 16}}))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "photons, more than the 16777216 it may draw" in err
        assert "lower detection.trials or modes.n_modes" in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("preset,section,name,needle,allocator", [
        ("random_phase", "ensemble", "n_spins", "n_spins must be <= 1048576",
         "sequences.random_phase_population_study"),
        ("fig2a", "detection", "gate_bins", "gate_bins must be in [1, 262144]",
         "detection.simulate_run"),
        ("fig1d", "thermalization", "n_max", "n_max must be <= 524288",
         "sequences.thermalization_monte_carlo_uniform"),
        ("random_phase", "random_phase", "n_max", "n_max must be <= 262144",
         "sequences.random_phase_population_study"),
        ("fig2c", "modes", "n_modes", "n_modes must be <= 16384", "detection.simulate_run"),
    ], ids=["n_spins", "gate_bins", "thermalization_n_max", "random_phase_n_max", "n_modes"])
    def test_huge_count_exit_2_without_allocating(self, tmp_path, monkeypatch, capsys,
                                                  command, preset, section, name, needle,
                                                  allocator):
        import afcmem

        def refuse(*args, **kwargs):
            raise AssertionError(f"{allocator} was called")

        module, attr = allocator.split(".")
        monkeypatch.setattr(getattr(afcmem, module), attr, refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": preset, section: {name: 2 ** 40}}))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert f"error: {section}: {needle}, got {2 ** 40}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_output_dir_under_a_file_exit_3(self, tmp_path, monkeypatch, capsys, route):
        monkeypatch.delenv("AFCMEM_OUT", raising=False)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig2a", "output_dir": str(out)}))
        argv = ["run", "fig2a", "--out", str(out)] if route == "flag" else ["run", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("preset,written", [
        ("fig1d", ["thermalization_xx.csv", "thermalization_xy4.csv"]),
        ("fig2a", ["histogram.csv", "comb_spectrum.csv", "echo_trace.csv"]),
        ("fig2b", ["histogram.csv", "comb_spectrum.csv", "echo_trace.csv"]),
        ("fig2c", ["timeline.csv", "histograms.csv", "comb_spectrum.csv", "echo_trace.csv"]),
        ("random_phase", ["random_phase.csv"]),
        ("table1", ["table.csv"]),
    ])
    def test_every_pipeline_writes_its_report_last(self, tmp_path, capsys, preset, written):
        out = tmp_path / preset
        assert main(["run", preset, "--out", str(out), "--format", "json",
                     "--spins", "500", "--trials", "5000"]) == 0
        expected = [str(out / name) for name in written + ["report.json"]]
        assert capsys.readouterr().out.splitlines() == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(written + ["report.json"])
        results = json.loads((out / "report.json").read_text())["results"]
        fixtures = load_preset(preset).get("fixtures")
        if fixtures:
            assert results["fixtures"] == fixtures
        else:
            assert "fixtures" not in results

    def test_random_phase_pipeline_embeds_its_base_fixtures(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "fig1d", "pipeline": "random_phase",
                                    "random_phase": {"n_max": 2}}))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--format", "json",
                     "--spins", "100"]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["fixtures"] == load_preset("fig1d")["fixtures"]

    def test_validate_subcommand(self, tmp_path, capsys):
        assert main(["validate", "fig2a"]) == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sequence": {"t_s_s": -2.0}}))
        assert main(["validate", str(path)]) == 2

    def test_run_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run", "fig2b", "--out", str(out), "--format", "json",
                     "--trials", "20000"]) == 0
        for name in ("report.json", "histogram.csv", "comb_spectrum.csv", "echo_trace.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["parameters"]["detection"]["trials"] == 20000
        assert report["results"]["eta_model"] == pytest.approx(0.051, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        # every preset in both formats, run twice in one process
        for preset in ALL_PRESETS:
            for fmt in ("csv", "json"):
                runs = [tmp_path / preset / fmt / "a", tmp_path / preset / fmt / "b"]
                for out in runs:
                    assert main(["run", preset, "--out", str(out), "--format", fmt,
                                 "--spins", "2000", "--trials", "5000"]) == 0
                names = sorted(p.name for p in runs[0].iterdir())
                assert f"report.{fmt}" in names
                assert sorted(p.name for p in runs[1].iterdir()) == names
                for name in names:
                    assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_seed_changes_monte_carlo_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "fig1d", "--out", str(out1), "--spins", "2000"]) == 0
        assert main(["run", "fig1d", "--out", str(out2), "--spins", "2000", "--seed", "77"]) == 0
        assert ((out1 / "thermalization_xx.csv").read_bytes()
                != (out2 / "thermalization_xx.csv").read_bytes())

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("AFCMEM_OUT", str(env_dir))
        assert main(["run", "fig2a", "--format", "json", "--trials", "5000"]) == 0
        assert (env_dir / "report.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AFCMEM_OUT", str(tmp_path / "unused"))
        out = tmp_path / "flag_out"
        assert main(["run", "fig2a", "--out", str(out), "--format", "json",
                     "--trials", "5000"]) == 0
        assert (out / "report.json").exists()
        assert not (tmp_path / "unused").exists()

    def test_table1_report_rows(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["run", "table1", "--out", str(out), "--format", "json"]) == 0
        report = json.loads((out / "report.json").read_text())
        t_values = [row["t_s_s"] for row in report["results"]["rows"]]
        assert t_values == [0.25e-3, 0.5e-3, 0.75e-3, 1.0e-3, 1.25e-3, 1.5e-3]
        table = (out / "table.csv").read_text().splitlines()
        assert len(table) == 7  # header + 6 rows

    def test_fig2c_multimode_outputs(self, tmp_path):
        out = tmp_path / "f2c"
        assert main(["run", "fig2c", "--out", str(out), "--format", "json",
                     "--trials", "20000"]) == 0
        lines = (out / "timeline.csv").read_text().splitlines()
        assert lines[0] == "mode,input_time_s,output_time_s,total_s"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[2]) == float(first[1]) + float(first[3])
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["timeline"]["n_modes"] == 5
        assert len(report["results"]["per_mode"]) == 5

    def test_fig1d_curves(self, tmp_path):
        out = tmp_path / "f1d"
        assert main(["run", "fig1d", "--out", str(out), "--spins", "4000"]) == 0
        lines = (out / "thermalization_xx.csv").read_text().splitlines()
        assert lines[0] == "N,rho_g_closed_form,rho_g_monte_carlo,stderr"
        assert len(lines) >= 102  # N reaches at least 100
        row50 = lines[51].split(",")
        assert float(row50[1]) > 0.45  # closed form thermalized by 50
        assert float(row50[2]) > 0.45  # Monte Carlo agrees

    def test_random_phase_study(self, tmp_path):
        out = tmp_path / "rp"
        assert main(["run", "random_phase", "--out", str(out), "--spins", "2000"]) == 0
        lines = (out / "random_phase.csv").read_text().splitlines()
        assert lines[0] == "N,rho_g_xx,rho_g_xy4,rho_g_xy8,rho_g_kdd"
        final = [float(v) for v in lines[-1].split(",")[1:]]
        assert all(0.0 <= v <= 1.0 for v in final)
        # the single-axis sequence pumps population fastest from a random phase
        assert final[0] > max(final[1:])
