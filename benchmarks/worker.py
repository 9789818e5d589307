"""Benchmark worker: runs one workload in a closed loop and reports raw samples.

run.py starts this in a fresh interpreter with the checkout's `src` first
on PYTHONPATH and the BLAS thread count pinned, so the process runs only
this workload and its peak RSS belongs to it.  One client, one operation
at a time, no worker threads.  The last line of standard output is one
JSON object with the samples; run.py turns them into metrics.

A warm-up operation runs first, untimed, with the seed of operation 0.
Operation 0 then reruns that seed and its output bytes must match.  With
--trace 0, fresh set-up interpreters are timed between operations, spread
evenly over the run.  With --trace 1, odd operations run with the tracer
installed and even ones on the unpatched package, so the tracing overhead
is measured within the run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common


def _blas_info() -> dict:
    """OpenBLAS version and the thread count it actually runs with."""
    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "openblas" in str(blas.get("name", "")).lower():
        info["openblas"] = blas.get("version")
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


_SETUP_CODE = (
    "import sys, afcmem\n"
    "from afcmem.config import load_config\n"
    "for target in sys.argv[1:]:\n"
    "    load_config(target)\n"
    "print(afcmem.__file__)\n"
)


def time_setup(workload: str) -> float:
    """Wall time of one fresh interpreter that imports afcmem and loads the
    workload's presets, the cost every `afcmem run` pays before computing."""
    cmd = [sys.executable, "-c", _SETUP_CODE, *common.WORKLOAD_PRESETS[workload]]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    if not proc.stdout.strip().startswith(str(common.SRC)):
        raise RuntimeError(f"set-up imported afcmem from {proc.stdout.strip()}")
    return elapsed


def _digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + hashlib.sha256(outputs[name]).digest())
    return h.hexdigest()


def _run_op(workload, seed: int, out_dir: Path, tracer=None, op_id: int = 0):
    """One operation: (seconds, result, output bytes or None, problems)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(seed, out_dir)
        else:
            with tracer.operation(op_id):
                result = workload.run(seed, out_dir)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, None, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(seed, out_dir, result)
        outputs = workload.outputs(out_dir, result)
    except Exception as exc:
        return elapsed, result, None, [f"output check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, result, outputs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOAD_PRESETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import afcmem

    if not Path(afcmem.__file__).resolve().is_relative_to(common.SRC):
        print(f"error: afcmem imported from {afcmem.__file__}, not {common.SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracing.per_layer_spec()  # raises CoverageError for a metric nothing produces
        tracer = tracing.Tracer()
        tracer.install()  # raises CoverageError when a binding is missed
        tracer.uninstall()

    ref_seed = common.op_seed(args.workload, args.seed, 0)
    _, _, reference, problems = _run_op(workload, ref_seed, args.work_dir / "warmup")
    if problems:  # operation 0 repeats this seed and counts the failure
        print(f"warning: warm-up operation failed: {problems}", file=sys.stderr)
    n_setup = 0 if tracer is not None else common.SETUP_SAMPLES
    if n_setup:
        time_setup(args.workload)  # untimed: the first may compile bytecode

    samples, failures, results, setup = [], [], [], []
    traced_ids = []
    outputs_sha256 = None
    min_ops = 1 if tracer is None else 2  # a traced run needs one op of each kind
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        seed = common.op_seed(args.workload, args.seed, i)
        if traced:
            tracer.install()
        try:
            elapsed, result, outputs, problems = _run_op(
                workload, seed, args.work_dir / "op", tracer if traced else None, i)
        finally:
            if traced:
                tracer.uninstall()
        if i == 0 and outputs is not None:
            outputs_sha256 = _digest(outputs)
            if reference is None:
                problems = problems + [f"the warm-up run of seed {seed} failed"]
            elif outputs != reference:
                changed = sorted(k for k in outputs.keys() | reference.keys()
                                 if outputs.get(k) != reference.get(k))
                problems = problems + [f"rerun of seed {seed} changed {changed}"]
        samples.append({"seconds": elapsed, "traced": traced, "seed": seed})
        if traced:
            traced_ids.append(i)
        if problems:
            failures.append({"op": i, "seed": seed, "problems": problems})
        elif outputs is not None:
            results.append(result)
        i += 1
        due = math.ceil(n_setup * (time.perf_counter() - start) / args.seconds)
        while len(setup) < min(n_setup, due):
            setup.append(time_setup(args.workload))
    while len(setup) < n_setup:
        setup.append(time_setup(args.workload))
    shutil.rmtree(args.work_dir, ignore_errors=True)

    report = {
        "samples": samples,
        "failures": failures,
        "run_failures": workload.run_check(results),
        "setup_seconds": setup,
        "outputs_sha256": outputs_sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "runtime": _blas_info(),
    }
    if tracer is not None:
        import tracing

        untraced = [s["seconds"] for s in samples if not s["traced"]]
        traced = [s["seconds"] for s in samples if s["traced"]]
        ops = tracer.per_op()
        report["per_layer"] = tracing.layer_metrics(ops, traced_ids, untraced, traced)
        violations = tracing.check_predicted_zeros(args.workload, ops)
        if violations:
            print("error: calls where the per-layer map predicts none: "
                  + "; ".join(violations), file=sys.stderr)
            return 3
        trace_path = common.OUT_DIR / f"spans_{args.workload}.jsonl"  # latest run only
        tracer.dump(trace_path)
        report["spans_file"] = str(trace_path.relative_to(common.ROOT))
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
