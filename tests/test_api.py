"""The surface the benchmark and the package exports rely on.

perfbench/ wraps module attributes by name (each workload's ``TARGETS``),
so removing or renaming one breaks the benchmark without failing any other
test.  The package's public names are pinned below, so adding or removing
one is a deliberate edit here.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import blockra

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


PUBLIC_NAMES = [
    "BenchCell", "BenchReport", "BlockRaConfig", "ChainTrace", "DependenceReport",
    "FitConfig", "FitReport", "GofVerdict", "MarginSpec", "McmcConfig", "ObjectiveSpec",
    "OracleResult", "Partition", "RearrangementMatrix", "RunResult", "SpreadResult",
    "StartCensus", "TargetDistribution", "Thresholds", "__version__", "block_ra1",
    "block_ra2", "brute_force_minimum", "countermonotone_rearrange", "default_thresholds",
    "discretize_quantiles", "enumerate_starts",
    "fit_sum_to_target", "haus_integer_matrix", "haus_integer_minimum",
    "kolmogorov_asymptotic_cdf", "ks_distance", "make_zero_sum_normal_matrix",
    "mcmc_block_ra", "median_threshold", "multivariate_dependence_exact",
    "multivariate_dependence_sampled", "propose_permutation",
    "read_matrix_csv", "resolve_rate", "run_table_benchmark", "sample_variance", "spearman",
    "spread_dependence", "standard_ra", "verdict", "w2_distance", "write_matrix_csv",
]
MODULES = ("algorithms", "bench", "dependence", "gof", "matrix", "mcmc", "oracle", "targetfit")


def test_public_surface_is_pinned():
    assert blockra.__all__ == PUBLIC_NAMES
    module_names = [name for module in MODULES
                    for name in importlib.import_module(f"blockra.{module}").__all__]
    assert len(module_names) == len(set(module_names))  # no name exported twice
    assert set(blockra.__all__) == set(module_names) | {"__version__"}


def _unused_imports(path):
    """(line, name) of each name ``path`` imports and never reads.

    Names in ``__all__``, star imports, ``__future__`` imports and lines
    marked ``# noqa: F401`` (a re-export, or a name perfbench wraps) are exempt.
    """
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "blockra").glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import *\n"
                      "from json import dumps, loads\n__all__ = ['loads']\nprint(os.sep)\n")
    assert _unused_imports(module) == [(4, "dumps")]
