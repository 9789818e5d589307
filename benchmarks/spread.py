"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload memory_chain --seeds 1-10

Runs `run.py --trace 0` once per seed, one after another, for the
run_seconds of BENCHMARK.json, and prints for each metric the median of
the runs and the quartile spread (Q3 - Q1) / median, with quartiles from
statistics.quantiles(n=4), next to the metric's bound from BENCHMARK.json.
A benchmark is steady when every spread is within its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOAD_PRESETS))
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 3,5,8")
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s wall): {shown}", flush=True)
    for name, vals in values.items():
        spread = common.quartile_spread(vals) if len(vals) > 1 else float("nan")
        print(f"{name:<50} median {common.median(vals):<12.6g} spread {spread:.4f}"
              f"  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
