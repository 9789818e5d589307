"""Pieces shared by the benchmark's parent process (run.py) and its worker (worker.py).

Nothing here imports afcmem or numpy, so the parent stays a thin process
that only spawns children and does arithmetic on what they report.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchout"

# Preset targets each workload loads; setup_s times loading exactly these.
WORKLOAD_PRESETS = {
    "dd_random_phase": ("random_phase",),
    "memory_chain": ("fig2a", "fig2b", "fig2c", "table1"),
    "pulse_budget": ("fig1d",),
}

# Fresh set-up interpreters timed per run (after one untimed one that may
# compile bytecode), spread evenly over the run between operations.  Each
# costs about 0.2 s.  setup_s is the fastest: set-up has a hard floor, while
# the slow spells of a shared host last seconds and moved the median of 30
# by up to 30% between runs against 6-12% for the minimum.
SETUP_SAMPLES = 30

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# BLAS threads for every child interpreter.  On a shared 2-CPU host a second
# thread saved ~3% per memory_chain operation (the only BLAS-heavy workload),
# but the run-to-run spread of op_s_p50 over five seeds was 4-14% with two
# threads against 3% with one: a two-thread call waits for the busier CPU.
BLAS_THREADS = 1


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation `index` of a run, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least TAIL_BEYOND samples strictly beyond it.

    With n sorted samples that is order statistic n - TAIL_BEYOND (1-based),
    at percentile 100 * (n - TAIL_BEYOND) / n.  With n <= TAIL_BEYOND no
    percentile qualifies; the minimum is returned at percentile 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = max(0, n - TAIL_BEYOND - 1)
    pct = 100.0 * max(0, n - TAIL_BEYOND) / n
    return float(ordered[k]), pct, n


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    `spans` is a sequence of (name, start, end, parent, op_id) with parent
    the index of the enclosing span or -1.  Children are clipped to the
    parent interval and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def cgroup_cpu_max() -> str:
    """The cgroup CPU quota as 'quota period' (cgroup v2 cpu.max format), read only."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        quota = int((v1 / "cpu.cfs_quota_us").read_text())
        period = int((v1 / "cpu.cfs_period_us").read_text())
    except (OSError, ValueError):
        return "unavailable"
    return f"{'max' if quota < 0 else quota} {period}"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first, BLAS pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("AFCMEM_OUT", None)
    return env


def git_commit() -> str | None:
    """Commit of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package sources and presets, a commit stand-in for exports."""
    h = hashlib.sha256()
    pkg = SRC / "afcmem"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }
