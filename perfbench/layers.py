"""Per-layer metrics: what each one is, what it should move, how it is computed.

``CATALOGUE`` maps every per-layer metric to its unit, its direction, and the
workload and end-to-end metric it should move.  ``span_metrics`` derives the
span and count metrics from one traced pass of every workload; ``probes``
times single units of each inner loop on fixed inputs, after a warm-up.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np

from blockra import algorithms, dependence, gof, matrix
from blockra.algorithms import BlockRaConfig
from blockra.gof import TargetDistribution

from spans import self_time
from workloads import Tables

CELL_NAMES = [f"{t}-{m}x{n}" for t, m, n in Tables.CELLS]

# name -> (unit, better, workload, end-to-end metric it should move)
CATALOGUE = {
    **{f"bench.cell_s.{c}": ("s", "lower", "tables", "wall_s") for c in CELL_NAMES},
    "bench.self_s": ("s", "lower", "tables", "wall_s"),
    "algorithms.standard_ra_s": ("s", "lower", "tables", "wall_s"),
    "algorithms.block_ra2_s": ("s", "lower", "tables", "wall_s"),
    "algorithms.ra_sweeps": ("count", "lower", "tables", "wall_s"),
    "algorithms.ra_moves_applied": ("count", "lower", "tables", "wall_s"),
    "algorithms.bra2_sweeps": ("count", "lower", "tables", "wall_s"),
    "algorithms.bra2_moves_tried": ("count", "lower", "tables", "wall_s"),
    "algorithms.bra2_moves_applied": ("count", "lower", "tables", "wall_s"),
    "algorithms.bra2_applied_ratio": ("ratio", "higher", "tables", "wall_s"),
    "algorithms.bra2_pass_us.10x10": ("us", "lower", "tables", "wall_s"),
    "algorithms.block_ra1_s": ("s", "lower", "search", "wall_s"),
    "algorithms.bra1_sweeps": ("count", "lower", "search", "wall_s"),
    "matrix.move_us.10x10": ("us", "lower", "tables", "wall_s"),
    "matrix.move_ms.1e5x3": ("ms", "lower", "fit", "wall_s"),
    "matrix.move_ms.1e6x3": ("ms", "lower", "fit", "wall_s"),
    "dependence.exact_s": ("s", "lower", "search", "wall_s"),
    "dependence.splits": ("count", "lower", "search", "wall_s"),
    "dependence.split_us.100x14": ("us", "lower", "search", "wall_s"),
    "dependence.split_us.1000x10": ("us", "lower", "search", "wall_s"),
    "dependence.spearman_us.100": ("us", "lower", "search", "wall_s"),
    "mcmc.chain_s": ("s", "lower", "search", "wall_s"),
    "mcmc.iterations": ("count", "lower", "search", "wall_s"),
    "mcmc.acceptance": ("ratio", "lower", "search", "wall_s"),
    "mcmc.iter_us.8x3": ("us", "lower", "search", "wall_s"),
    "mcmc.iter_us.20x6": ("us", "lower", "search", "wall_s"),
    "oracle.scan_s": ("s", "lower", "search", "wall_s"),
    "oracle.arrangements": ("count", "lower", "search", "wall_s"),
    "oracle.ns_per_arrangement.7x4": ("ns", "lower", "search", "wall_s"),
    "oracle.tables_s": ("s", "lower", "tables", "wall_s"),
    "oracle.ns_per_arrangement.6x4": ("ns", "lower", "tables", "wall_s"),
    "targetfit.fit_s.u2n": ("s", "lower", "fit", "wall_s"),
    "targetfit.fit_s.n2u": ("s", "lower", "fit", "wall_s"),
    "targetfit.passes.u2n": ("count", "lower", "fit", "wall_s and quality"),
    "targetfit.passes.n2u": ("count", "lower", "fit", "wall_s and quality"),
    "targetfit.pass_ms.u2n": ("ms", "lower", "fit", "wall_s"),
    "targetfit.pass_ms.n2u": ("ms", "lower", "fit", "wall_s"),
    "gof.thresholds_s": ("s", "lower", "fit", "wall_s"),
    "gof.quantile_ms.1e6": ("ms", "lower", "fit", "wall_s"),
    "gof.ks_ms.1e6": ("ms", "lower", "fit", "wall_s"),
    "gof.w2_ms.1e6": ("ms", "lower", "fit", "wall_s"),
    "trace.overhead_s": ("s", "lower", "all", "none: traced minus untraced wall_s"),
    "trace.spans": ("count", "lower", "all", "none: spans recorded in the traced pass"),
}


def span_metrics(passes: dict) -> dict:
    """Span and count metrics from one traced pass per workload.

    ``passes`` maps a workload name to the Recorder of its traced pass.
    """
    out = {}
    spans = passes["tables"].spans
    named = _by_name(spans)
    for i, s in enumerate(spans):
        if s.name == "bench.run_table_benchmark":
            out[f"bench.cell_s.{s.job}"] = s.duration
            out["bench.self_s"] = out.get("bench.self_s", 0.0) + self_time(spans, i)
    out["algorithms.standard_ra_s"] = _seconds(named["algorithms.standard_ra"])
    out["algorithms.block_ra2_s"] = _seconds(named["algorithms.block_ra2"])
    out["oracle.tables_s"] = _seconds(named["oracle.brute_force_minimum"])
    ras, bras = named["algorithms.standard_ra"], named["algorithms.block_ra2"]
    out["algorithms.ra_sweeps"] = sum(s.result.sweeps for s in ras)
    out["algorithms.ra_moves_applied"] = sum(s.result.rearrangements_applied for s in ras)
    out["algorithms.bra2_sweeps"] = sum(s.result.sweeps for s in bras)
    # Every default cell has n <= 10, so each pass tries all 2^(n-1) - 1 splits.
    out["algorithms.bra2_moves_tried"] = sum(
        s.result.sweeps * BlockRaConfig().resolve_n_sim(s.shape[1]) for s in bras)
    out["algorithms.bra2_moves_applied"] = sum(s.result.rearrangements_applied for s in bras)
    out["algorithms.bra2_applied_ratio"] = (
        out["algorithms.bra2_moves_applied"] / out["algorithms.bra2_moves_tried"])
    six = [s for s in named["oracle.brute_force_minimum"] if s.shape == (6, 4)]
    out["oracle.ns_per_arrangement.6x4"] = 1e9 * _seconds(six) / sum(
        s.result.arrangements_scanned for s in six)

    named = _by_name(passes["search"].spans)
    bra1 = named["algorithms.block_ra1"]
    out["algorithms.block_ra1_s"] = _seconds(bra1)
    out["algorithms.bra1_sweeps"] = sum(s.result.sweeps for s in bra1)
    dep = named["dependence.multivariate_dependence_exact"]
    out["dependence.exact_s"] = _seconds(dep)
    out["dependence.splits"] = sum(s.result.partitions_evaluated for s in dep)
    for shape in ((100, 14), (1000, 10)):
        direct = [s for s in dep if s.parent is None and s.shape == shape]
        out[f"dependence.split_us.{shape[0]}x{shape[1]}"] = 1e6 * _seconds(direct) / sum(
            s.result.partitions_evaluated for s in direct)
    chains = named["mcmc.mcmc_block_ra"]
    out["mcmc.chain_s"] = _seconds(chains)
    out["mcmc.iterations"] = sum(s.result.objective_per_iter.size for s in chains)
    out["mcmc.acceptance"] = sum(int(s.result.accepted.sum()) for s in chains) / out["mcmc.iterations"]
    for s in chains:
        out[f"mcmc.iter_us.{s.shape[0]}x{s.shape[1]}"] = 1e6 * s.duration / s.result.objective_per_iter.size
    scans = named["oracle.brute_force_minimum"]
    out["oracle.scan_s"] = _seconds(scans)
    out["oracle.arrangements"] = sum(s.result.arrangements_scanned for s in scans)
    out["oracle.ns_per_arrangement.7x4"] = 1e9 * out["oracle.scan_s"] / out["oracle.arrangements"]

    spans = passes["fit"].spans
    out["gof.thresholds_s"] = _seconds(_by_name(spans)["gof.default_thresholds"])
    for i, s in enumerate(spans):
        if s.name == "targetfit.fit_sum_to_target":
            case = s.job.split("-")[1]
            out[f"targetfit.fit_s.{case}"] = s.duration
            out[f"targetfit.passes.{case}"] = s.result.iterations
            # the pass loop's own time: the fit minus its KS and W2 evaluations
            out[f"targetfit.pass_ms.{case}"] = 1e3 * self_time(spans, i) / s.result.iterations
    out["trace.spans"] = sum(len(r.spans) for r in passes.values())
    return out


def _by_name(spans: list) -> dict:
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    return named


def _seconds(spans: list) -> float:
    return sum(s.duration for s in spans)


def _median_time(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes() -> dict:
    """Unit costs on fixed inputs at the sizes the ROADMAP names."""
    rng = np.random.default_rng(12345)
    x10 = rng.standard_normal((10, 10))
    x1e5 = rng.standard_normal((10**5, 3))
    x1e6 = rng.standard_normal((10**6, 3))
    split10 = matrix.Partition((0, 2, 4, 6, 8), 10)
    split3 = matrix.Partition((0,), 3)
    v100 = rng.standard_normal((2, 100))
    normal = TargetDistribution.normal(0.0, 1.0)
    u = (np.arange(10**6) + 0.5) / 10**6
    sample = np.sort(normal.sample(10**6, rng))
    one_pass = BlockRaConfig(max_sweeps=1)
    return {
        "algorithms.bra2_pass_us.10x10": 1e6 * _median_time(lambda: algorithms.block_ra2(x10, one_pass), 21),
        "matrix.move_us.10x10": 1e6 * _median_time(lambda: matrix.countermonotone_rearrange(x10, split10), 201),
        "matrix.move_ms.1e5x3": 1e3 * _median_time(lambda: matrix.countermonotone_rearrange(x1e5, split3), 7),
        "matrix.move_ms.1e6x3": 1e3 * _median_time(lambda: matrix.countermonotone_rearrange(x1e6, split3), 3),
        "dependence.spearman_us.100": 1e6 * _median_time(lambda: dependence.spearman(*v100), 501),
        "gof.quantile_ms.1e6": 1e3 * _median_time(lambda: normal.quantile(u), 5),
        "gof.ks_ms.1e6": 1e3 * _median_time(lambda: gof.ks_distance(sample, normal), 5),
        "gof.w2_ms.1e6": 1e3 * _median_time(lambda: gof.w2_distance(sample, normal), 5),
    }


def check_complete(metrics: dict) -> list:
    missing = sorted(set(CATALOGUE) - set(metrics))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    return [f"per-layer metric missing: {k}" for k in missing] + [
        f"per-layer metric not finite: {k}" for k in bad]
