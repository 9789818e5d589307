"""Span tracing of afcmem's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every name it is bound
to: its home module, every afcmem module that copied it with
`from .x import y`, and the package namespace.  A wrapper records a span
(name, start, end, parent, operation id) in memory plus per-operation
counters derived from the call's arguments and result.  Spans are written
out once, when the run ends.

`Tracer.install` checks binding coverage and raises `CoverageError` if a
listed function is missing or any afcmem module still holds the original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import afcmem.cli  # noqa: F401  (loads every afcmem module that holds a binding)
from afcmem import pulses

from common import ROOT, median, self_times


class CoverageError(RuntimeError):
    """A traced function is missing or left unpatched at one of its bindings."""


def _spin_updates(args, kwargs, result):
    return {"spin_updates": args[0].n}


def _spin_rotations(args, kwargs, result):
    return {"spin_rotations": len(args[0])}


def _rk4_spin_steps(args, kwargs, result):
    states, pulse = args[0], args[1]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    if cfg is None:
        cfg = pulses.IntegratorConfig.for_pulse(pulse)
    return {"rk4_spin_steps": len(states) * max(1, round(pulse.duration_s / cfg.step_s))}


def _dft_size(args, kwargs, result):
    # Derived from array sizes: one complex128 phase factor per (frequency, time).
    terms = args[0].freq_hz.size * len(args[1])
    return {"dft_terms": terms, "bytes_computed": 16 * terms}


def _grid_points(args, kwargs, result):
    return {"grid_points": result.freq_hz.size}


def _photons_binned(args, kwargs, result):
    return {"photons_binned": int(result.counts_with.sum() + result.counts_without.sum())}


def _files_written(args, kwargs, result):
    return {"files_written": len(result),
            "bytes_written": sum(p.stat().st_size for p in result)}


# (module, attribute path, counter, track distinct arguments)
TRACED = (
    ("config", "load_config", None, False),
    ("ensemble", "free_evolve", _spin_updates, False),
    ("ensemble", "SpinEnsemble.__init__", None, False),
    ("ensemble", "sample_detunings", None, False),
    ("ensemble", "grid_ensemble", None, False),
    ("pulses", "rotate_states", _spin_rotations, False),
    ("pulses", "rotation_matrix", None, False),
    ("pulses", "jitter_angle", None, False),
    ("pulses", "integrate_bloch_many", _rk4_spin_steps, False),
    ("sequences", "apply_sequence", None, False),
    ("sequences", "sequence_rotation_matrix", None, False),
    ("sequences", "calibrate_systematic_error", None, True),
    ("sequences", "build_sequence", None, False),
    ("sequences", "rephasing_fidelity", None, False),
    ("sequences", "random_phase_population_study", None, False),
    ("sequences", "thermalization_monte_carlo", None, False),
    ("sequences", "thermalization_monte_carlo_uniform", None, False),
    ("afc", "echo_trace", _dft_size, False),
    ("afc", "build_comb", _grid_points, True),
    ("afc", "afc_echo_amplitude", None, False),
    ("afc", "memory_efficiency", None, False),
    ("detection", "simulate_run", _photons_binned, False),
    ("runner", "run_experiment", _files_written, False),
    ("rng", "spawn_generator", None, False),
)

# Copies made by `from .x import y` that must be patched; the scan in
# Tracer.install finds these on its own, and this list makes a miss loud.
EXPECTED_ALIASES = {
    "ensemble.free_evolve": ("sequences",),
    "pulses.rotate_states": ("sequences",),
    "pulses.jitter_angle": ("sequences",),
    "pulses.rotation_matrix": ("sequences",),
    "ensemble.sample_detunings": ("sequences",),
    "rng.spawn_generator": ("ensemble", "pulses", "sequences", "detection"),
    "sequences.build_sequence": ("afc",),
    "sequences.rephasing_fidelity": ("afc",),
    "ensemble.grid_ensemble": ("afc",),
    "config.load_config": ("cli",),
    "runner.run_experiment": ("cli",),
}

# Counters that the runner layer reports under its own prefix.
_COUNTER_ALIASES = {"runner.run_experiment.bytes_written": "runner.bytes_written",
                    "runner.run_experiment.files_written": "runner.files_written"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "afcmem" or name.startswith("afcmem.")}


def _resolve(module: str, attr: str):
    owner = sys.modules.get(f"afcmem.{module}")
    if owner is None:
        raise CoverageError(f"module afcmem.{module} is not loaded")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"afcmem.{module}.{attr} is missing")
    fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(fn):
        raise CoverageError(f"afcmem.{module}.{attr} is missing")
    return owner, leaf, fn


class Tracer:
    """Collects spans and per-operation counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.keys: dict = defaultdict(lambda: defaultdict(set))
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn, counter, distinct):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if distinct else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                counts = self.counts[self.op_id]
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys[self.op_id][name].add(repr(bound.arguments))
            return result

        return wrapper

    def install(self):
        """Patch every binding of every traced function; check coverage."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        originals = []
        for module, attr, counter, distinct in TRACED:
            owner, leaf, fn = _resolve(module, attr)
            name = span_name(module, attr)
            wrapper = self._wrap(name, fn, counter, distinct)
            originals.append((name, fn, wrapper))
            self._patches.append((owner, leaf, fn, wrapper))
            if isinstance(owner, type):
                continue  # methods are shared by every reference to the class
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn, wrapper))
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        self._check_coverage(modules, originals)

    def _check_coverage(self, modules, originals):
        missed = []
        for name, fn, wrapper in originals:
            for mod_name, mod in modules.items():
                for key, value in vars(mod).items():
                    if value is fn:
                        missed.append(f"{mod_name}.{key} (original {name})")
            for alias_mod in EXPECTED_ALIASES.get(name, ()):
                leaf = name.rsplit(".", 1)[1]
                mod = modules.get(f"afcmem.{alias_mod}")
                if mod is None or getattr(mod, leaf, None) is not wrapper:
                    missed.append(f"afcmem.{alias_mod}.{leaf} (expected copy of {name})")
        if missed:
            self.uninstall()
            raise CoverageError("traced functions left unpatched: " + ", ".join(missed))

    def uninstall(self):
        for owner, key, fn, _ in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()
        for module, attr, _, _ in TRACED:
            owner, leaf, fn = _resolve(module, attr)
            if hasattr(fn, "__wrapped__"):
                raise CoverageError(f"afcmem.{module}.{attr} still wrapped after uninstall")

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; spans recorded inside carry op_id."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index] = ("op", start, time.perf_counter(), -1, op_id)

    def dump(self, path):
        """Write the spans, one JSON array per line: [index, parent, op, name, start, end]."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, op, name, start, end]) + "\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per traced operation: calls, inclusive and self time per span name,
        counters, and distinct-argument ratios."""
        selfs = self_times(self.spans)
        ops: dict = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, op), self_s in zip(self.spans, selfs):
            row = ops[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.s"] += end - start
            row[f"{name}.self_s"] += self_s
        for op, counts in self.counts.items():
            for key, value in counts.items():
                ops[op][_COUNTER_ALIASES.get(key, key)] += value
        for op, names in self.keys.items():
            for name, keys in names.items():
                ops[op][f"{name}.unique_ratio"] = len(keys) / ops[op][f"{name}.calls"]
        for row in ops.values():
            evolves = row.get("ensemble.free_evolve.calls", 0.0)
            inits = row.get("ensemble.SpinEnsemble.init.calls", 0.0)
            row["ensemble.SpinEnsemble.init.per_free_evolve"] = inits / evolves if evolves else 0.0
        return ops


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric that BENCHMARK.json lists.

    Raises CoverageError for a name that no traced function or counter
    produces, which would otherwise read as a silent zero.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    spans = {span_name(module, attr) for module, attr, _, _ in TRACED}
    unknown = [name for name, _ in metrics
               if not (name.startswith("trace.") or name in _COUNTER_ALIASES.values()
                       or name.rsplit(".", 1)[0] in spans)]
    if unknown:
        raise CoverageError("per-layer metrics that no traced function produces: "
                            + ", ".join(unknown))
    return metrics


def layer_metrics(ops: dict, op_ids, untraced_s, traced_s) -> dict:
    """Median over traced operations of every per-layer metric, from the rows
    of Tracer.per_op, plus the tracing overhead (difference of the traced
    and untraced op_s_p50)."""
    p50_traced, p50_untraced = median(traced_s), median(untraced_s)
    trace = {"trace.op_s_p50_traced": p50_traced, "trace.op_s_p50_untraced": p50_untraced,
             "trace.overhead_s": p50_traced - p50_untraced, "trace.ops_traced": len(op_ids)}
    out = {}
    for name, unit in per_layer_spec():
        value = trace[name] if name.startswith("trace.") else median(
            [ops.get(op, {}).get(name, 0.0) for op in op_ids])
        out[name] = {"value": value, "unit": unit}
    return out


# Layers that a workload is predicted never to reach: a call there means the
# workload or the tracing is not what the per-layer map says it is.
PREDICTED_ZEROS = {
    "dd_random_phase": ("afc.", "pulses.integrate_bloch_many."),
    "memory_chain": ("pulses.integrate_bloch_many.",),
    "pulse_budget": ("afc.",),
}


def check_predicted_zeros(workload: str, ops: dict) -> list[str]:
    bad = []
    for op, row in ops.items():
        for key, value in row.items():
            if key.endswith(".calls") and value and key.startswith(PREDICTED_ZEROS[workload]):
                bad.append(f"operation {op}: {key} = {value:g}, predicted 0")
    return sorted(set(bad))

