"""afcmem benchmark: one workload, one closed-loop client, every metric by name.

    python3 benchmarks/run.py --workload dd_random_phase --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics (op_s_p50, op_s_tail,
setup_s, peak_rss_mb; error_rate is `failed / attempted`).  With --trace 1
it reports the per-layer metrics from a traced run and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.  The full
result, with provenance, is also written under .benchout/.

The package is imported from this checkout's `src`; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import common

RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s


def run_worker(args, env: dict, budget_s: float) -> dict:
    work_dir = common.OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    # Its own session, so a timeout also ends the set-up interpreters it starts.
    with subprocess.Popen(cmd, env=env, cwd=common.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=budget_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(proc.returncode)
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the details printed beside them."""
    ops = [s["seconds"] for s in raw["samples"]]
    setup = raw["setup_seconds"]
    tail_value, tail_pct, n = common.tail(ops)
    metrics = {
        "op_s_p50": {"value": common.median(ops), "unit": "s"},
        "op_s_tail": {"value": tail_value, "unit": "s"},
        "setup_s": {"value": min(setup), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }
    details = {
        "op_s_p50": f"median of {n} operations",
        "op_s_tail": (f"p{tail_pct:.1f} of {n} operations"
                      + (" (the minimum: too few operations for a tail)" if tail_pct == 0 else "")),
        "setup_s": f"fastest of {len(setup)} fresh interpreters spread over the run",
        "peak_rss_mb": "ru_maxrss of the worker process",
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOAD_PRESETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (common.SRC / "afcmem" / "__init__.py").is_file():
        print(f"error: no afcmem package under {common.SRC}", file=sys.stderr)
        return 2
    env = common.child_env()
    common.OUT_DIR.mkdir(exist_ok=True)

    raw = run_worker(args, env, RUN_LIMIT_S - (time.perf_counter() - started))
    attempted = len(raw["samples"])
    failed = len(raw["failures"])
    if args.trace:
        metrics, details = raw["per_layer"], {}
    else:
        metrics, details = end_to_end(raw)

    provenance = dict(common.host_provenance(), **raw["runtime"],
                      blas_threads_requested=common.BLAS_THREADS, workload=args.workload,
                      workload_seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 client, {attempted} operations)")
    for name, m in metrics.items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']:<6} {details.get(name, '')}")
    print(f"  {'error_rate':<50} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} attempted")
    print(f"  outputs_sha256 {raw['outputs_sha256']}")
    for failure in raw["failures"]:
        print(f"  FAILED op {failure['op']} seed {failure['seed']}: {failure['problems']}")
    for problem in raw["run_failures"]:
        print(f"  FAILED run check: {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    result = {"correct": failed == 0 and not raw["run_failures"],
              "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = dict(result, error_rate=failed / attempted, details=details,
                outputs_sha256=raw["outputs_sha256"], failures=raw["failures"],
                run_failures=raw["run_failures"],
                op_seconds=[s["seconds"] for s in raw["samples"]],
                setup_seconds=raw["setup_seconds"],
                provenance=provenance)
    if args.trace:
        full["spans_file"], full["spans"] = raw["spans_file"], raw["spans"]
    out = common.OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
