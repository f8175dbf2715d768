"""The surface the benchmark and the package exports rely on.

perfbench/ wraps module attributes by name (each workload's ``TARGETS``),
so removing or renaming one breaks the benchmark without failing any other
test.
"""

import importlib
import sys
from pathlib import Path

import pytest

import blockra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    # Import only: write no bytecode into the benchmark's directory.
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


WORKLOADS = _workloads().WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_targets_exist(workload):
    for layer, modules in WORKLOADS[workload].TARGETS.items():
        module_name, attr = layer.split(".", 1)
        assert hasattr(importlib.import_module(f"blockra.{module_name}"), attr), layer
        for module in modules:
            assert hasattr(module, attr), f"{layer} in {module.__name__}"


def test_package_exports_resolve():
    missing = [name for name in blockra.__all__ if not hasattr(blockra, name)]
    assert missing == []
