"""Replicated benchmark harnesses for the plain-vs-block comparison tables.

Three table protocols are supported:

* ``tcomp`` - shared-values uniform starts; the plain cycler runs first and
  the block pass-resampler polishes its output.  Reports mean final row-sum
  variances for both stages.
* ``t1b``   - same starts at brute-forceable sizes; additionally reports the
  mean gap between each stage's variance and the per-replicate exact
  minimum.
* ``t3b``   - zero-sum normal construction with per-column shuffles, so the
  exact minimum is 0 and both stages are measured from the same start.

Every replicate owns an independent seeded stream derived from
``(rng_seed, replicate_index)``; results are merged by replicate index, so
reports are identical whether replicates run inline or on a worker pool.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algorithms import BlockRaConfig, block_ra2, standard_ra
from .matrix import _as_matrix, _count
from .oracle import _arrangements, _orders, brute_force_minimum, make_zero_sum_normal_matrix

__all__ = [
    "BenchCell",
    "BenchReport",
    "StartCensus",
    "enumerate_starts",
    "run_table_benchmark",
]

# Default cell grids, chosen so a 200-replicate run of every cell fits a
# desk-scale time budget; any single (m, n) cell is reachable explicitly.
_DEFAULT_CELLS = {
    "tcomp": ((10, 4), (10, 7), (10, 10), (100, 4)),
    "t1b": ((4, 4), (5, 4), (6, 4), (7, 4)),
    "t3b": ((10, 4), (10, 6), (10, 8)),
}


@dataclass(frozen=True)
class BenchCell:
    """Aggregated statistics for one (m, n) cell of a benchmark table."""

    m: int
    n: int
    replicates: int
    mean_v_ra: float
    mean_v_bra: float
    se_v_ra: float
    se_v_bra: float
    mean_gap_ra: Optional[float] = None
    mean_gap_bra: Optional[float] = None
    se_gap_ra: Optional[float] = None
    se_gap_bra: Optional[float] = None


@dataclass(frozen=True)
class BenchReport:
    table: str
    replicates: int
    rng_seed: int
    cells: tuple[BenchCell, ...]


@dataclass(frozen=True)
class StartCensus:
    """Exhaustive-start study: final objective value -> number of starts."""

    starts: int
    limits: tuple[tuple[float, int], ...]


def _shared_values_start(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(size=m)
    return np.column_stack([u] + [rng.permutation(u) for _ in range(n - 1)])


def _run_replicate(args: tuple) -> tuple[int, float, float, Optional[float]]:
    table, m, n, seed, rep = args
    rng = np.random.default_rng([seed, rep])
    if table == "t3b":
        zs_seed = int(rng.integers(2**63))
        base = make_zero_sum_normal_matrix(m, n, zs_seed).values
        arr = np.column_stack([rng.permutation(base[:, j]) for j in range(n)])
    else:
        arr = _shared_values_start(m, n, rng)
    bra_seed = int(rng.integers(2**63))
    ra = standard_ra(arr)
    # t3b measures both stages from the shuffled start; the uniform tables
    # chain the block stage onto the plain stage's output.
    bra_start = arr if table == "t3b" else ra.final_matrix
    bra = block_ra2(bra_start, BlockRaConfig(rng_seed=bra_seed))
    v_star = brute_force_minimum(arr).min_variance if table == "t1b" else None
    return rep, ra.final_objective, bra.final_objective, v_star


def _aggregate(table: str, m: int, n: int, rows: Sequence[tuple]) -> BenchCell:
    _, v_ra, v_bra, v_star = (np.array(col) for col in zip(*sorted(rows)))  # merge by replicate index
    stages = {"v_ra": v_ra, "v_bra": v_bra}
    if table == "t1b":
        stages.update(gap_ra=v_ra - v_star, gap_bra=v_bra - v_star)
    cell = {}
    for name, x in stages.items():
        cell["mean_" + name] = float(x.mean())
        cell["se_" + name] = float(x.std(ddof=1) / math.sqrt(len(rows)))
    return BenchCell(m=m, n=n, replicates=len(rows), **cell)


def run_table_benchmark(
    table: str,
    replicates: int = 200,
    rng_seed: int = 0,
    m: Optional[int] = None,
    n: Optional[int] = None,
    jobs: int = 1,
) -> BenchReport:
    """Re-run one comparison table at a chosen replicate count.

    With ``m``/``n`` omitted the table's default cell grid runs; passing
    them selects a single cell (``t1b`` defaults n=4, ``t3b`` defaults
    m=10).  ``jobs`` > 1 spreads replicates over a process pool of at most
    one worker per core and per chunk of 8 replicates; the merge is by
    replicate index either way.
    """
    if table not in _DEFAULT_CELLS:
        raise ValueError(f"unknown table {table!r}; expected one of {tuple(_DEFAULT_CELLS)}")
    replicates = _count("replicates", replicates, 10)
    rng_seed, jobs = _count("rng_seed", rng_seed, 0), _count("jobs", jobs)

    if m is None and n is None:
        cells = _DEFAULT_CELLS[table]
    else:
        if table == "t1b" and n is None:
            n = 4
        if table == "t3b" and m is None:
            m = 10
        if m is None or n is None:
            raise ValueError(f"table {table!r} needs both m and n for a single cell")
        cells = ((_count("m", m, 2), _count("n", n, 2)),)
    for cm, cn in cells:
        if table == "t1b":  # refuse cells whose per-replicate oracle would pass its budget
            _arrangements(cm, cn - 2)
    workers = min(jobs, -(-replicates // 8), os.cpu_count() or 1)

    out = []
    for cm, cn in cells:
        args = [(table, cm, cn, rng_seed, rep) for rep in range(replicates)]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # slow to import; only pools need it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_replicate, args, chunksize=8))
        else:
            rows = [_run_replicate(a) for a in args]
        out.append(_aggregate(table, cm, cn, rows))
    return BenchReport(table=table, replicates=replicates, rng_seed=rng_seed, cells=tuple(out))


def enumerate_starts(
    X,
    config: Optional[BlockRaConfig] = None,
    decimals: int = 9,
) -> StartCensus:
    """Run the block pass-resampler from every canonical column-permuted start.

    The start set fixes the first column sorted (row relabeling never
    changes a row-sum variance) and enumerates all (m!)^(n-1) joint
    orderings of the remaining columns.  Final objectives are bucketed
    after rounding to ``decimals`` places.  Exhaustive, so only sensible
    for small fixtures.
    """
    decimals = _count("decimals", decimals, None)
    arr = _as_matrix(X).values
    m, n = arr.shape
    total = _arrangements(m, n - 1, 200_000)
    cfg = config or BlockRaConfig()
    orders = _orders(np.arange(total), m, n - 1)
    buckets: dict[float, int] = {}
    start = np.empty_like(arr)
    start[:, 0] = np.sort(arr[:, 0])
    for t in range(total):
        for j, order in enumerate(orders, start=1):
            start[:, j] = arr[order[t], j]
        res = block_ra2(start, cfg)
        key = round(res.final_objective, decimals)
        buckets[key] = buckets.get(key, 0) + 1
    limits = tuple(sorted(buckets.items()))
    return StartCensus(starts=total, limits=limits)
