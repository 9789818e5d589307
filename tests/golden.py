"""The report byte audit: the runs whose every output file the manifest pins.

The manifest, golden/manifest.json beside this file, holds the sha256 of
each file these runs write, keyed by its path under the output root, with
the Python and numpy versions that wrote it.  test_golden.py regenerates
the files and names each one that differs, is missing or is extra.  A
change that means to move report bytes rewrites the manifest with

    PYTHONPATH=src python tests/golden.py

and commits it.  The script prints the files that differ from, are missing
from or are extra to the manifest it replaces, and the manifest's diff lists
the same files.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from afcmem.config import load_config, preset_names
from afcmem.runner import run_experiment

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

SEEDS = (12345, 1, 7)
FORMATS = ("csv", "json")

# Configs outside the presets, each run at its preset's seed: the finite-Rabi
# and jittered pulse paths of random_phase, and a finite-Rabi memory chain.
EXTRA_RUNS = {
    "random_phase_rabi": ("random_phase", {"ensemble": {"n_spins": 2000},
                                           "pulse": {"rabi_hz": 2e5}}),
    "random_phase_jitter": ("random_phase", {"ensemble": {"n_spins": 2000},
                                             "pulse": {"jitter_sd": 0.01}}),
    "random_phase_rabi_jitter": ("random_phase", {"ensemble": {"n_spins": 2000},
                                                  "pulse": {"rabi_hz": 2e5, "jitter_sd": 0.01}}),
    "fig2b_rabi": ("fig2b", {"pulse": {"rabi_hz": 5e4}}),
}


# (output subdirectory, preset, overrides) of every audited run.
RUNS = ([(f"{preset}/{fmt}/seed{seed}", preset, {"format": fmt, "seed": seed})
         for preset in preset_names() for fmt in FORMATS for seed in SEEDS]
        + [(f"{name}/{fmt}", preset, dict(over, format=fmt))
           for name, (preset, over) in EXTRA_RUNS.items() for fmt in FORMATS])


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def write_runs(root: Path) -> dict[str, str]:
    """Run every audited config under root; sha256 of each written file by
    its path relative to root."""
    hashes = {}
    for subdir, preset, overrides in RUNS:
        cfg, fixtures = load_config(preset, overrides)
        for path in run_experiment(cfg, fixtures, root / subdir):
            hashes[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return hashes


def compare(expected: dict[str, str], actual: dict[str, str]) -> dict[str, list[str]]:
    """The paths whose hashes differ, that only expected has (missing) and
    that only actual has (extra), each sorted."""
    return {"differ": sorted(k for k in expected.keys() & actual.keys()
                             if expected[k] != actual[k]),
            "missing": sorted(expected.keys() - actual.keys()),
            "extra": sorted(actual.keys() - expected.keys())}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_runs(Path(tmp))
    old = json.loads(MANIFEST.read_text())["files"] if MANIFEST.exists() else {}
    for kind, paths in compare(old, files).items():
        print(f"{kind}: {len(paths)}")
        for path in paths:
            print(f"  {path}")
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = dict(versions(), files=dict(sorted(files.items())))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{MANIFEST}: {len(files)} files")
