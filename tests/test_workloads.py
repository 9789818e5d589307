"""Each benchmark workload, run once on the package as it stands.

benchmarks/workloads.py drives the public API with calls of its own (a
section's to_domain, build_sequence with a replaced pulse, the library
studies); a package change that breaks one of them shows here, not only in
a manual benchmark run.  This module puts benchmarks/ on sys.path and
changes nothing there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import common  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    seed = common.op_seed(name, 0, 0)
    result = workload.run(seed, tmp_path)
    assert workload.check(seed, tmp_path, result) == []


def test_traced_operation_reaches_only_its_layers(tmp_path):
    # install checks that every binding of every traced function is patched,
    # the sequences aliases of rotation_matrix and rotate_states included
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            workloads.WORKLOADS["memory_chain"].run(common.op_seed("memory_chain", 0, 0),
                                                    tmp_path)
    finally:
        tracer.uninstall()
    ops = tracer.per_op()
    assert ops[0]["runner.run_experiment.calls"] == len(workloads.MemoryChain.presets)
    assert tracing.check_predicted_zeros("memory_chain", ops) == []
