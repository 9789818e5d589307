"""Unit tests of the benchmark harness itself (not of afcmem).

    python3 -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

import pytest

import common

sys.path.insert(0, str(common.SRC))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


class TestSelfTime:
    def test_children_overlapping_and_clipped(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 3.0, 0),
            _span("b", 2.0, 5.0, 0),    # overlaps a: [1, 5] covered once
            _span("c", 9.0, 12.0, 0),   # clipped to the parent: [9, 10]
            _span("a.x", 1.5, 2.5, 1),
        ]
        assert common.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])

    def test_leaf_self_time_is_its_duration(self):
        assert common.self_times([_span("leaf", 2.0, 2.5, -1)]) == [0.5]

    def test_grandchildren_do_not_reduce_the_root(self):
        spans = [_span("root", 0.0, 4.0, -1), _span("mid", 1.0, 3.0, 0),
                 _span("leaf", 1.0, 3.0, 1)]
        assert common.self_times(spans) == pytest.approx([2.0, 0.0, 2.0])

    def test_tracer_aggregates_per_operation(self):
        tracer = tracing.Tracer()
        tracer.spans = [_span("op", 0.0, 10.0, -1, 1),
                        _span("ensemble.free_evolve", 1.0, 2.0, 0, 1),
                        _span("ensemble.SpinEnsemble.init", 1.5, 1.75, 1, 1),
                        _span("ensemble.SpinEnsemble.init", 3.0, 3.25, 0, 1),
                        _span("op", 20.0, 21.0, -1, 3)]
        ops = tracer.per_op()
        assert ops[1]["ensemble.free_evolve.self_s"] == pytest.approx(0.75)
        assert ops[1]["ensemble.SpinEnsemble.init.calls"] == 2
        assert ops[1]["ensemble.SpinEnsemble.init.per_free_evolve"] == 2.0
        assert ops[1]["op.self_s"] == pytest.approx(8.75)
        assert ops[3]["ensemble.SpinEnsemble.init.per_free_evolve"] == 0.0


class TestPercentiles:
    def test_tail_leaves_ten_samples_beyond(self):
        values = list(range(30, 0, -1))
        value, pct, n = common.tail(values)
        assert (value, n) == (20, 30)
        assert pct == pytest.approx(100.0 * 20 / 30)
        assert sum(v > value for v in values) == 10

    def test_tail_with_eleven_samples_is_the_minimum(self):
        value, pct, n = common.tail([5.0] + [9.0] * 10)
        assert (value, n) == (5.0, 11)
        assert pct == pytest.approx(100.0 / 11)

    def test_tail_with_too_few_samples_falls_back_to_p0(self):
        assert common.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)

    def test_tail_of_nothing_raises(self):
        with pytest.raises(ValueError):
            common.tail([])

    def test_quartile_spread(self):
        assert common.quartile_spread([1.0] * 10) == 0.0
        assert common.quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)


class TestSeedsAndChecks:
    def test_op_seeds_are_stable_and_distinct(self):
        seeds = [common.op_seed("memory_chain", 7, i) for i in range(100)]
        assert seeds == [common.op_seed("memory_chain", 7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds[0] != common.op_seed("memory_chain", 8, 0)
        assert all(0 <= s < 2 ** 31 for s in seeds)

    def test_bernstein_flags_a_gross_miss_only(self):
        n, rho = 10_000, 0.3
        tol = workloads.bernstein_tolerance(n, rho)
        stderr = (rho * (1 - rho) / n) ** 0.5
        assert 3 * stderr < tol < 10 * stderr
        assert workloads._mc_disagreements("x", [rho], [rho + 0.5 * tol], n) == []
        assert workloads._mc_disagreements("x", [rho], [rho + 2 * tol], n)


class TestPooledMonteCarlo:
    def test_chernoff_tail(self):
        assert workloads.chernoff_log_tail(25.0, 25.0) == 0.0
        assert workloads.chernoff_log_tail(0, 25.0) == -25.0
        assert workloads.chernoff_log_tail(20, 25.0) > math.log(workloads.MC_FALSE_ALARM)
        assert workloads.chernoff_log_tail(80, 25.0) < math.log(workloads.MC_FALSE_ALARM)

    def test_pooled_check_flags_a_monte_carlo_that_never_flips(self):
        budget = workloads.PulseBudget()
        rho = 0.5 * (1 - (1 - 2 * 3e-6) ** budget.mc_n_max)

        def result(flipped):
            mc = SimpleNamespace(rho_g=[0.0, rho], rho_g_mc=[0.0, flipped / budget.mc_spins])
            return None, None, mc

        expected = rho * budget.mc_spins * 35
        assert 20 < expected < 30
        assert budget.run_check([result(0)] * 35)
        assert budget.run_check([result(1)] * 20 + [result(0)] * 15) == []
        assert budget.run_check([result(3)] * 35)


class TestTracerInstall:
    def test_every_binding_patched_and_restored(self):
        import afcmem
        from afcmem import afc, ensemble, sequences

        original = ensemble.free_evolve
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert sequences.free_evolve is ensemble.free_evolve is afcmem.free_evolve
            assert sequences.free_evolve.__wrapped__ is original
            assert afc.build_sequence is sequences.build_sequence
            assert hasattr(ensemble.SpinEnsemble.__init__, "__wrapped__")
        finally:
            tracer.uninstall()
        assert sequences.free_evolve is original
        assert not hasattr(ensemble.SpinEnsemble.__init__, "__wrapped__")

    def test_missing_expected_alias_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(tracing.EXPECTED_ALIASES, "ensemble.free_evolve",
                            ("sequences", "detection"))
        tracer = tracing.Tracer()
        with pytest.raises(tracing.CoverageError, match="afcmem.detection.free_evolve"):
            tracer.install()
        from afcmem import sequences
        assert not hasattr(sequences.free_evolve, "__wrapped__")

    def test_missing_function_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(tracing, "TRACED",
                            tracing.TRACED + (("pulses", "no_such_function", None, False),))
        with pytest.raises(tracing.CoverageError, match="no_such_function"):
            tracing.Tracer().install()


class TestMetricNames:
    def test_benchmark_json_lists_what_the_harness_reports(self):
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        assert tracing.per_layer_spec() == [(m["name"], m["unit"]) for m in spec["per_layer"]]
        raw = {"samples": [{"seconds": 1.0}] * 3, "peak_rss_mb": 50.0,
               "setup_seconds": [0.2, 0.3]}
        metrics, _ = run.end_to_end(raw)
        assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
        for m in spec["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
        assert {w["name"] for w in spec["workloads"]} <= set(common.WORKLOAD_PRESETS)

    def test_unknown_per_layer_metric_fails_loudly(self, monkeypatch, tmp_path):
        spec = {"per_layer": [{"name": "pulses.no_such_function.calls", "unit": "count"}]}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.setattr(tracing, "ROOT", tmp_path)
        with pytest.raises(tracing.CoverageError, match="no_such_function"):
            tracing.per_layer_spec()
