import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import afcmem.afc
from afcmem import runner
from afcmem.config import ExperimentConfig, load_config, preset_names
from afcmem.ensemble import SpinEnsemble, sample_detunings
from afcmem.sequences import (build_sequence, calibrate_systematic_error,
                              random_phase_population_study)


def _per_cell_csv(path, header, rows):
    """The row-wise writer the column-wise one replaced: every cell tested
    on its own, floats (numpy's too) with '%.12g', anything else with str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(["%.12g" % v if isinstance(v, (float, np.floating)) else str(v)
                               for v in row]))
    path.write_text("\n".join(lines) + "\n")
    return path


def _assert_same_bytes(tmp_path, columns):
    new = runner._write_csv(tmp_path / "new.csv", columns)
    old = _per_cell_csv(tmp_path / "old.csv", list(columns), zip(*columns.values()))
    assert new.read_bytes() == old.read_bytes()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0 / 3.0, 5e-324,
                  1.7976931348623157e308, -123456789012.5, 1e-5, 0.1 + 0.2]
FLOAT32_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0 / 3.0, 1e-45, 3e38, -2.5, 1e-5,
                  0.1]


class TestWriteCsv:
    def test_every_column_kind_matches_the_per_cell_writer(self, tmp_path):
        n = len(SPECIAL_FLOATS)
        mixed = [None, True, False, "text", 3, -7, 2.5, np.float64(-0.0), np.int64(9),
                 np.bool_(True), np.float32(0.1)]
        _assert_same_bytes(tmp_path, {
            "floats": np.array(SPECIAL_FLOATS),
            "float32": np.array(FLOAT32_VALUES, dtype=np.float32),
            "float_list": SPECIAL_FLOATS,
            "ints": np.arange(n) * -1234567,
            "int_list": range(n),
            "bools": np.arange(n) % 3 == 0,
            "numpy_scalars": [np.float64(v) for v in SPECIAL_FLOATS],
            "mixed": mixed,
        })

    def test_report_column_matches_the_per_cell_writer(self, tmp_path):
        flat = {}
        runner._flatten("", {"results": {"eta": 0.057, "empty": True, "none": None,
                                         "rows": [{"t": 2.5e-4, "n": 3}], "name": "fig2a"}},
                        flat)
        keys = sorted(flat)
        _assert_same_bytes(tmp_path, {"key": keys, "value": [flat[k] for k in keys]})

    def test_no_rows_writes_the_header(self, tmp_path):
        _assert_same_bytes(tmp_path, {"a": np.array([]), "b": []})

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            runner._write_csv(tmp_path / "x.csv", {"a": np.zeros(3), "b": [1, 2]})

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_any_float_array_matches_the_per_cell_writer(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("csv")
        _assert_same_bytes(tmp_path, {"x": np.array(values), "i": range(len(values))})


def test_json_report_takes_numpy_scalars(tmp_path):
    results = {"empty": np.bool_(True), "eta": np.float64(0.25), "n": np.int64(7),
               "lost": np.float64(math.nan), "rows": [np.bool_(False)]}
    path = runner._write_report(tmp_path, ExperimentConfig(format="json"), results)
    got = json.loads(path.read_text())["results"]
    assert got == {"empty": True, "eta": 0.25, "n": 7, "lost": None, "rows": [False]}
    assert type(got["empty"]) is bool and type(got["n"]) is int


@pytest.mark.parametrize("preset,builds", [("fig2a", 1), ("fig2b", 1), ("fig2c", 1),
                                           ("table1", 0)])
def test_comb_is_sampled_only_for_its_traces(tmp_path, monkeypatch, preset, builds):
    # the efficiency chain takes the comb's dephasing in closed form; only
    # comb_spectrum.csv and echo_trace.csv need the sampled comb
    calls = []
    build = afcmem.afc.build_comb

    def counted(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(afcmem.afc, "build_comb", counted)
    cfg, fixtures = load_config(preset, {"detection": {"trials": 2000}})
    runner.run_experiment(cfg, fixtures, out_dir=tmp_path)
    assert len(calls) == builds


@pytest.mark.parametrize("preset", preset_names())
def test_no_pipeline_builds_a_spin_ensemble(tmp_path, monkeypatch, preset):
    # the pipelines carry the spin line as (detunings_hz, weights) arrays
    def refuse(self):
        raise AssertionError("a pipeline built a SpinEnsemble")

    monkeypatch.setattr(SpinEnsemble, "__post_init__", refuse)
    cfg, fixtures = load_config(preset, {"ensemble": {"n_spins": 2000},
                                         "detection": {"trials": 5000}})
    runner.run_experiment(cfg, fixtures, out_dir=tmp_path)


@pytest.mark.parametrize("pulse", [{}, {"jitter_sd": 0.01}], ids=["composed", "jittered"])
def test_random_phase_pipeline_equals_per_kind_studies(tmp_path, pulse):
    # the pipeline draws its detunings without an ensemble and one start state
    # for every kind; each kind studied alone, on a sample_detunings ensemble
    # and with its own draw of the start state, must give the same bits
    cfg, fixtures = load_config("random_phase", {
        "format": "json", "pulse": pulse, "ensemble": {"n_spins": 700},
        "random_phase": {"n_max": 6}})
    runner.run_experiment(cfg, fixtures, out_dir=tmp_path)
    final = json.loads((tmp_path / "report.json").read_text())["results"]["final_rho_g"]
    with open(tmp_path / "random_phase.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ens = sample_detunings(cfg.ensemble, cfg.ensemble.n_spins, cfg.seed)
    eps = calibrate_systematic_error(cfg.thermalization.eps_xx, "xx", cfg.sequence.t_s_s)
    template = replace(cfg.pulse.to_domain(), systematic_error=eps)
    rp = cfg.random_phase
    assert sorted(final) == sorted(rp.kinds)
    for kind in rp.kinds:
        seq = build_sequence(kind, cfg.sequence.t_s_s, template)
        rho_g = random_phase_population_study([seq], ens.detunings_hz, ens.weights, rp.n_max,
                                              tilt=rp.tilt, seed=cfg.seed)[0]
        assert final[kind] == float(rho_g[-1])
        assert [row[f"rho_g_{kind}"] for row in rows] == ["%.12g" % v for v in rho_g]


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot of more than 10,000 elements across its threads,
    # and the random-phase study dots all 40,000 spins here
    config = tmp_path / "random_phase.json"
    config.write_text(json.dumps({"preset": "random_phase", "format": "json",
                                  "ensemble": {"n_spins": 40_000},
                                  "random_phase": {"n_max": 8}}))
    src = str(Path(afcmem.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "afcmem.cli", "run", str(config), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outputs[0]) == ["random_phase.csv", "report.json"]
    assert outputs[0] == outputs[1]
