"""Fit the dependence of n given margins so their sum matches a target law.

The working object is an m x (n+1) matrix: n margin columns plus one column
holding the negated target quantiles.  Driving the variance of the full row
sums toward zero forces margin-sum order statistics onto the target grid.
Symmetric uniform margins are fitted at their support bound, the smallest
half-width whose margin sums can reach every target quantile.  Centered
normal margins recalibrate sigma after every pass so the margin sums keep
the target's variance.  Fixed-scale fits start from a seeded shuffle of
each margin column, which settles in far fewer passes than the sorted,
comonotone start; the normal walk keeps that sorted start.

The pass loop keeps the matrix column-major, so each column is contiguous,
sums and permutes its blocks with the matrix module's kernel, and tracks an
ascending argsort of every margin column across moves.  A single-column side
of a split then needs no sort: a lone margin column reads its tracked order,
and the target column, whose values never change, is written in descending
order along the other side's order.  A multi-column moved side is first
stable-sorted along the other side's order; with no tie in its sums the move
then rewrites only the rows it displaces, else a fresh argsort orders it.
Where values tie exactly, the order within a tie class is whatever the
argsorts give, which cannot change any row-sum variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .algorithms import BlockRaConfig, _resolve_n_sim, block_ra2
# perfbench/workloads.py patches ks_distance and w2_distance on this
# module, so both names stay importable here.
from .gof import TargetDistribution, Thresholds, ks_distance, verdict, w2_distance  # noqa: F401
from .matrix import (RearrangementMatrix, _block_sums, _pass_masks, _permute_rows, _split_of_mask,
                     sample_variance)

__all__ = [
    "MarginSpec",
    "FitConfig",
    "FitReport",
    "SpreadResult",
    "discretize_quantiles",
    "fit_sum_to_target",
    "spread_dependence",
]

# Starting sigma of the normal-margin walk, fixed because where the walk
# settles depends on where it starts: two margins against U[-1,1] at
# m = 10^4 (seed 3) settle at 0.3137 from 0.2 and at 0.3372 from 0.4, while
# a start of 0.8 runs away to max_passes.
_NORMAL_START_SIGMA = 0.4

# _ordered_move's warm sort pays up to m / 8 descents (at m = 10^5, 2 ms a move, not 4).
_WARM_SORT_DESCENT_FRACTION = 8

# FitReport.verdict by which of the KS and W2 distances beat their thresholds.
_VERDICTS = {(True, True): "indistinguishable", (True, False): "ks-only",
             (False, True): "w2-only", (False, False): "neither"}


@dataclass(frozen=True)
class MarginSpec:
    """Common law of the n margin columns.

    The fit sets the symmetric uniform half-width and the centered normal
    sigma itself; empirical margins carry a fixed quantile table, a law
    discretized at the fit's m like the others, and are never rescaled.
    Only they take a table, checked and kept as a read-only copy however built.
    """

    family: str
    n: int
    table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two margin columns")
        if self.family == "empirical":
            if self.table is None:
                raise ValueError("empirical margins need a quantile table")
            tab = np.array(self.table, dtype=np.float64)
            if tab.ndim != 1 or tab.size < 2:
                raise ValueError("quantile table must be a vector of at least 2 values")
            if not np.isfinite(tab).all():
                raise ValueError("empirical margin table has non-finite entries")
            if np.any(np.diff(tab) < 0):
                raise ValueError("quantile table must be nondecreasing")
            tab.setflags(write=False)
            object.__setattr__(self, "table", tab)
        elif self.family not in ("uniform-symmetric", "normal"):
            raise ValueError(f"unknown margin family: {self.family!r}")
        elif self.table is not None:
            raise ValueError(f"{self.family} margins take no quantile table")

    @classmethod
    def uniform_symmetric(cls, n: int) -> "MarginSpec":
        return cls(family="uniform-symmetric", n=n)

    @classmethod
    def normal(cls, n: int) -> "MarginSpec":
        return cls(family="normal", n=n)

    @classmethod
    def empirical(cls, n: int, quantile_table: Sequence[float]) -> "MarginSpec":
        return cls(family="empirical", n=n, table=quantile_table)

    def unit_law(self) -> TargetDistribution:
        """The family member at scale 1 (the stored table for empirical)."""
        if self.family == "uniform-symmetric":
            return TargetDistribution.uniform(-1.0, 1.0)
        if self.family == "normal":
            return TargetDistribution.normal(0.0, 1.0)
        return TargetDistribution.empirical(self.table)


@dataclass(frozen=True)
class FitConfig:
    """Fit loop settings.

    One pass = a sweep over n_sim sampled canonical partitions followed, for
    normal margins, by sigma recalibration.  The loop stops when the
    achieved row-sum variance and the scale both move by less than rel_tol
    between passes.
    """

    n_sim: Optional[int] = None
    rel_tol: float = 1e-8
    max_passes: int = 500
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sim is not None and not (isinstance(self.n_sim, Integral) and self.n_sim > 0):
            raise ValueError("n_sim must be a positive integer")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not (isinstance(self.max_passes, Integral) and self.max_passes > 0):
            raise ValueError("max_passes must be a positive integer")
        if not (isinstance(self.rng_seed, Integral) and self.rng_seed >= 0):
            raise ValueError("rng_seed must be a nonnegative integer")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit.

    ``stop_reason`` is ``settled`` when the row-sum variance and the scale
    both stopped moving, ``max-passes`` when the pass budget ran out first,
    and ``degenerate`` when the margin sums of a normal-margin fit became
    constant after a pass, which leaves no variance to recalibrate sigma
    against; sigma is then left where that pass found it.
    """

    fitted_scale: float
    final_matrix: RearrangementMatrix
    ks: float
    w2: float
    ks_threshold: float
    w2_threshold: float
    verdict: str
    iterations: int
    stop_reason: str


def discretize_quantiles(dist: TargetDistribution, m: int) -> np.ndarray:
    """Quantile grid F^{-1}(i/(m+1)), i = 1..m, ascending."""
    if m < 1:
        raise ValueError("m must be positive")
    probs = np.arange(1, m + 1, dtype=np.float64) / (m + 1)
    return np.asarray(dist.quantile(probs), dtype=np.float64).reshape(m)


def _ordered_move(arr: np.ndarray, cols: list, order: list, target_desc: np.ndarray,
                  pi: np.ndarray, comp: np.ndarray) -> None:
    """Countermonotone move of the fit loop on a column-major matrix.

    ``cols`` is ``list(arr.T)``.  ``order[j]``, an ascending argsort of margin
    column j, is kept current through the inverse row permutation whenever
    the column moves, so a single-column pi side is read off its tracked
    order; a multi-column one argsorts its ``_block_sums``.  The negated-target
    column is last, so it is always moved, and it is the only column ever
    moved alone: its values never change, so it then takes ``target_desc``,
    its values in descending order, along the pi side's order.  Other moved
    sides stable-sort their negated sums along the pi order when it has at
    most m / _WARM_SORT_DESCENT_FRACTION descents; with no tie among them
    that is their one argsort, and only the displaced rows are rewritten, in
    the matrix and the tracked orders.  A busier order or any tie takes a
    plain argsort and ``_permute_rows`` instead, so the order within a tie
    class is whichever the argsorts give, which cannot change any variance.
    """
    o_pi = order[pi[0]] if pi.size == 1 else np.argsort(_block_sums(arr, cols, pi))
    if comp.size == 1:
        arr[:, comp[0]][o_pi] = target_desc
        return
    keys = -_block_sums(arr, cols, comp)
    kc = keys.take(o_pi)
    if np.count_nonzero(kc[1:] < kc[:-1]) <= kc.size // _WARM_SORT_DESCENT_FRACTION:
        p = kc.argsort(kind="stable")
        sk = kc.take(p)
        if not np.any(sk[1:] == sk[:-1]):
            inv = np.arange(kc.size)
            k = np.flatnonzero(p != inv)
            if k.size == 0:
                return
            rows, src = o_pi.take(k), o_pi.take(p.take(k))
            for j in comp:
                arr[:, j][rows] = arr[:, j].take(src)
            inv[src] = rows
            for j in comp[:-1]:
                order[j] = inv.take(order[j])
            return
    o_bar = np.argsort(keys)
    sigma = np.empty_like(o_bar)
    sigma[o_pi] = o_bar
    inv = np.empty_like(o_bar)
    inv[o_bar] = o_pi
    _permute_rows(arr, cols, comp, sigma)
    for j in comp[:-1]:
        order[j] = inv.take(order[j])


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Row sums added in the order numpy adds the rows of a row-major array.

    Rows of eight or more entries are added pairwise there, so such blocks
    are summed from a row-major copy; shorter rows are added left to right
    in either layout.
    """
    return block.sum(axis=1) if block.shape[1] < 8 else np.ascontiguousarray(block).sum(axis=1)


def fit_sum_to_target(margins: MarginSpec, target: TargetDistribution, m: int,
                      config: Optional[FitConfig] = None,
                      thresholds: Optional[Thresholds] = None) -> FitReport:
    """Optimize the joint arrangement of n margins against a target law.

    Builds [margin columns, -(target quantiles)] and runs partition-sampled
    countermonotone passes until the variance of the full row sums settles.
    Symmetric uniform margins take the support bound as their half-width:
    the smallest a whose margin-sum support [-n a u, n a u], u the largest
    unit-grid value, covers the target grid.  Normal margins recalibrate
    sigma after every pass, and settle only once sigma also stops moving.
    Distances are measured between the margin-column row sums and the
    target.
    """
    cfg = config or FitConfig()
    if m < 2:
        raise ValueError("m must be at least 2")

    n = margins.n
    n_cols = n + 1
    rng = np.random.default_rng(cfg.rng_seed)

    unit_grid = discretize_quantiles(margins.unit_law(), m)
    target_grid = discretize_quantiles(target, m)
    walk = margins.family == "normal"
    if margins.family == "uniform-symmetric":
        scale = float(np.max(np.abs(target_grid)) / (n * unit_grid[-1]))
    else:
        scale = _NORMAL_START_SIGMA if walk else 1.0
    # The recalibration constant aims at the sample variance of the
    # discretized target, not the law's analytic variance.  The sweep can
    # at best couple the margin sums to the target grid, whose variance
    # sits O(1/m) below the analytic value, so aiming at the analytic
    # number leaves the per-pass rescale ratio bounded away from 1 and the
    # scale inflates without an absorbing state.  Against the grid's own
    # variance the settled coupling makes the ratio exactly 1.
    var_target = sample_variance(target_grid)

    arr = np.empty((m, n_cols), dtype=np.float64, order="F")
    # A fixed-scale fit starts from one seeded shuffle of each margin column;
    # the walk keeps its sorted start, since where it settles depends on its start.
    for j in range(n):
        arr[:, j] = scale * unit_grid if walk else rng.permutation(scale * unit_grid)
    target_desc = -target_grid
    arr[:, n] = target_desc
    # Ascending argsort of every margin column, kept current by
    # _ordered_move; rescaling by a positive ratio keeps it valid.
    order = [np.argsort(arr[:, j], kind="stable") for j in range(n)]
    cols = list(arr.T)

    n_sim = _resolve_n_sim(cfg.n_sim, n_cols)
    prev_var = np.inf
    prev_scale = scale
    passes = 0
    stop_reason = "max-passes"
    for _ in range(cfg.max_passes):
        passes += 1
        for mask in _pass_masks(n_cols, n_sim, rng):
            _ordered_move(arr, cols, order, target_desc, *_split_of_mask(mask, n_cols))
        if walk:
            v = sample_variance(_row_sums(arr[:, :n]))
            if v == 0.0:
                stop_reason = "degenerate"
                break
            ratio = float(np.sqrt(var_target / v))
            scale *= ratio
            arr[:, :n] *= ratio
        var_all = sample_variance(_row_sums(arr))
        # The first pass has no previous variance to settle against.
        var_settled = passes > 1 and abs(var_all - prev_var) <= max(cfg.rel_tol * prev_var, 1e-18)
        scale_settled = abs(scale - prev_scale) <= max(cfg.rel_tol * abs(prev_scale), 1e-18)
        if var_settled and scale_settled:
            stop_reason = "settled"
            break
        prev_var = var_all
        prev_scale = scale

    if walk:
        # Each margin column becomes one multiply of the pristine unit grid,
        # killing the drift accumulated by in-place ratio multiplies and
        # making sorted column values exact.
        scaled = scale * unit_grid
        for j in range(n):
            arr[order[j], j] = scaled
    gof = verdict(_row_sums(arr[:, :n]), target, thresholds)
    return FitReport(
        fitted_scale=scale,
        final_matrix=RearrangementMatrix(arr),
        ks=gof.d_ks,
        w2=gof.t_w2,
        ks_threshold=gof.med_ks,
        w2_threshold=gof.med_w2,
        verdict=_VERDICTS[gof.ks_ok, gof.w2_ok],
        iterations=passes,
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class SpreadResult:
    """Two-asset dependence recovered from three marginal quantile tables."""

    copula: RearrangementMatrix
    residual_variance: float
    start: str  # the kept block_ra2 run's start: "given" or "shuffled"
    sweeps: int
    stop_reason: str


def spread_dependence(fp_quantiles, fg_quantiles, fs_quantiles,
                      config: Optional[BlockRaConfig] = None) -> SpreadResult:
    """Joint law of two assets consistent with a given spread law.

    Stacks the three quantile tables as [first asset, -(second asset),
    -(spread)] and minimizes the row-sum variance; the joint sample is the
    first column paired with the second negated back to asset scale, and
    the achieved variance reports how close asset1 - asset2 - spread came
    to zero row by row.  An incompatible spread law just leaves a positive
    residual.
    """
    fp, fg, fs = (np.asarray(tab, dtype=np.float64).ravel()
                  for tab in (fp_quantiles, fg_quantiles, fs_quantiles))
    if not fp.size == fg.size == fs.size:
        raise ValueError(f"quantile table lengths differ: fp={fp.size} fg={fg.size} fs={fs.size}")
    cfg = config or BlockRaConfig()
    rng = np.random.default_rng(cfg.rng_seed)
    # The tables as given can stall block_ra2 far from a compatible join, so a
    # seeded shuffle of the two asset columns runs too; ties keep the given start.
    starts = (np.column_stack([fp, -fg, -fs]),
              np.column_stack([rng.permutation(fp), -rng.permutation(fg), -fs]))
    start, result = min(zip(("given", "shuffled"), (block_ra2(X, cfg) for X in starts)),
                        key=lambda run: run[1].final_objective)
    final = result.final_matrix.values
    return SpreadResult(
        copula=RearrangementMatrix(np.column_stack([final[:, 0], -final[:, 1]])),
        residual_variance=result.final_objective,
        start=start, sweeps=result.sweeps, stop_reason=result.stop_reason,
    )
