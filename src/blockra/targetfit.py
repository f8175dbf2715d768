"""Fit the dependence of n given margins so their sum matches a target law.

The working object is an m x (n+1) matrix: n margin columns plus one column
holding the negated target quantiles.  Driving the variance of the full row
sums toward zero forces margin-sum order statistics onto the target grid.
Symmetric uniform margins are fitted at their support bound, the smallest
half-width whose margin sums can reach every target quantile.  Centered
normal margins recalibrate sigma after every pass so the margin sums keep
the target's variance.  Fixed-scale fits start from a seeded shuffle of
each margin column, which settles in far fewer passes than the sorted,
comonotone start: two uniforms against a normal at m = 10^5 settle in 5
passes at seeds 59 and 101; the normal walk keeps its sorted start and its
N->U mirror settles in 56.  The spread workflow is the same
problem, three columns with a fixed negated target, and settles on the
same pass loop.

The pass loop keeps the matrix column-major, so each column is contiguous,
sums its blocks with the matrix module's kernel, and tracks an ascending
argsort of every column across moves.  Every move gives ``_block_move``'s
rows under ``counter_permutation``'s tie rule (complement rows by block sum
descending, ties by row index; pi rows by block sum ascending, ties in that
complement order), so a fit does not depend on how the host's argsort
orders ties.  The tracked orders only make the sorts cheap: a lone column
without a tied value is read off its order, and a side that is nearly in
order along a tracked order is stable-sorted along it.  Each move rewrites
only the rows it displaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# perfbench/workloads.py patches ks_distance and w2_distance on this
# module, so both names stay importable here.
from .gof import TargetDistribution, Thresholds, ks_distance, verdict, w2_distance  # noqa: F401
from .matrix import (RearrangementMatrix, _block_sums, _count, _mask_columns, _pass_masks,
                     _resolve_n_sim, _rounding_bound, _row_sum_variance, _row_sums, sample_variance)

__all__ = [
    "MarginSpec",
    "FitConfig",
    "FitReport",
    "SpreadResult",
    "discretize_quantiles",
    "fit_sum_to_target",
    "spread_dependence",
]

# Starting sigma of the normal-margin walk against U[-1,1], fixed because where
# the walk settles depends on where it starts: two margins against U[-1,1] at
# m = 10^4 (seed 3) settle at 0.3137 from 0.2 and at 0.3372 from 0.4, while a
# start of 0.8 runs away to max_passes.  Other targets scale it by their grid's
# sd over U[-1,1]'s, so the fit of s times a target is s times the fit.
_NORMAL_START_SIGMA = 0.4

# Past m / 8 descents along its hint, a stable sort loses to numpy's default argsort.
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
        object.__setattr__(self, "n", _count("n", self.n, 2))
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
    normal margins, by sigma recalibration.  From the second pass on, the loop
    settles once the row-sum variance moved by at most rel_tol * t, t the target
    column's sample variance, and the scale from s' by at most rel_tol * |s'|.
    """

    n_sim: Optional[int] = None
    rel_tol: float = 1e-8
    max_passes: int = 500
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sim is not None:
            _count("n_sim", self.n_sim)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        _count("max_passes", self.max_passes)
        _count("rng_seed", self.rng_seed, 0)


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
    _count("m", m)
    probs = np.arange(1, m + 1, dtype=np.float64) / (m + 1)
    return np.asarray(dist.quantile(probs), dtype=np.float64).reshape(m)


def _ascending(values: np.ndarray, hint: np.ndarray, by_hint: bool = False) -> np.ndarray:
    """Rows by ``values`` ascending, tied rows in their ``hint`` order if ``by_hint``, else by index.

    With at most m / _WARM_SORT_DESCENT_FRACTION descents along the row order
    ``hint`` the values are stable-sorted along it, else given the default
    argsort; each run of tied values is then put in the rule's order, so the
    hint only sets the speed.
    """
    kv = values.take(hint)
    descents = np.count_nonzero(kv[1:] < kv[:-1])
    q = None  # with no descent the hint is the sort
    if descents:
        q = kv.argsort(kind="stable" if descents <= kv.size // _WARM_SORT_DESCENT_FRACTION else None)
        kv = kv.take(q)
    tie = kv[1:] == kv[:-1]
    del kv  # each working array goes once read
    p = hint if q is None else hint.take(q)
    if not tie.any():
        return p
    run = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])  # the slots of tied values
    rows, group = p.take(run), np.cumsum(~np.r_[False, tie].take(run))
    rank = (run if q is None else q.take(run)) if by_hint else rows
    del q, tie
    p = p.copy()  # p may be the hint itself
    p[run] = rows.take(np.argsort(group * p.size + rank))
    return p


def _ordered_move(arr: np.ndarray, cols: list, order: list, tied: list, pi: tuple,
                  comp: tuple) -> None:
    """``_block_move`` on the fit loop's column-major matrix: the same rows, sorted faster.

    ``cols`` is ``list(arr.T)``; ``order[j]``, an ascending argsort of column
    j kept current through every move, and ``tied[j]``, whether column j
    repeats a value, only speed the sorts up.  The tie rule is the module's.
    The complement sorts along a lone pi column's order, else along the
    negated-target column's order reversed when that column moves alone (the
    margin sums track the target), else along the pi sums' argsort; the pi
    side sorts along the complement order, unless it is a lone column
    without a tie, whose order it is.  Only the displaced rows are
    rewritten, in the matrix and the tracked orders.
    """
    t, lone = _block_sums(cols, pi), len(pi) == 1
    hint = order[pi[0]] if lone else order[comp[0]][::-1] if len(comp) == 1 else t.argsort()
    if not lone and len(comp) == 1 and not tied[comp[0]]:
        r = hint  # an untied lone complement column is read off its order, its sums unbuilt
    else:  # a one-column block is a view of the matrix, so it is negated into a copy
        s = _block_sums(cols, comp)
        r = _ascending(np.negative(s, out=s if len(comp) > 1 else None), hint)
        del s
    p = hint if lone and not tied[pi[0]] else _ascending(t, r, by_hint=True)
    del t, hint  # the rewrite below holds no block sums
    moved = p != r  # the move takes row r[k] to row p[k]
    moves = np.count_nonzero(moved)
    if not moves:
        return
    if 2 * moves <= p.size:  # rewrite only the displaced rows
        p, r = p[moved], r[moved]
    for j in comp:
        cols[j][p] = cols[j].take(r)
    inv = np.arange(arr.shape[0])
    inv[r] = p
    del p, r
    for j in comp:
        order[j] = inv.take(order[j])


def _settle(arr: np.ndarray, cfg: FitConfig, rng: np.random.Generator, given: str,
            scale: float = 1.0, walk: bool = False) -> tuple[list, float, int, str]:
    """The one pass loop of both target-law workflows, on column-major ``arr`` in place.

    ``arr`` holds the margin columns, then the negated target in descending
    order.  For the normal ``walk``, each pass then rescales the margin columns
    and ``scale`` so the margin sums keep the target column's sample variance;
    those columns must hold one multiset, as each ``scale * unit_grid`` does,
    and their ties are read again off column 0 along its order.  Beside ``arr``
    the loop holds each column's order and one move's arrays until read.
    Returns every column's tracked ascending order, the scale, the passes and
    the stop reason (see FitReport); ValueError naming ``given``, what the
    caller built ``arr`` from, unless its row-sum variance is finite.
    """
    _row_sum_variance(arr, given)
    n = arr.shape[1] - 1
    # The settle test and the walk read the target grid's own variance, O(1/m)
    # below the law's: the sweep can at best couple the margin sums to the grid,
    # so against the law's the rescale ratio stays off 1 and the scale inflates.
    var_target = sample_variance(arr[:, n])
    # Ascending argsort of every column, kept current by _ordered_move, and
    # whether it repeats a value: a move keeps each column's values, and a
    # rescale by a positive ratio keeps the orders but may merge two values,
    # so the walk reads its margins' ties again after every rescale.
    order = [np.argsort(arr[:, j], kind="stable") for j in range(n + 1)]
    tied = [bool(np.any(v[1:] == v[:-1])) for v in (arr[o, j] for j, o in enumerate(order))]
    cols = list(arr.T)
    n_sim = _resolve_n_sim(cfg.n_sim, n + 1)
    prev_var, prev_scale = np.inf, scale
    for passes in range(1, cfg.max_passes + 1):
        for mask in _pass_masks(n + 1, n_sim, rng):
            _ordered_move(arr, cols, order, tied, *_mask_columns(mask, n + 1))
        if walk:
            v = sample_variance(_row_sums(arr[:, :n]))
            if v == 0.0:
                return order, scale, passes, "degenerate"
            ratio = float(np.sqrt(var_target / v))
            scale *= ratio
            arr[:, :n] *= ratio
            tied[:n] = [bool(np.any(np.diff(cols[0].take(order[0])) == 0))] * n
        var_all = sample_variance(_row_sums(arr))
        # The first pass has no previous variance to settle against.
        var_settled = passes > 1 and abs(var_all - prev_var) <= cfg.rel_tol * var_target
        if var_settled and abs(scale - prev_scale) <= cfg.rel_tol * abs(prev_scale):
            return order, scale, passes, "settled"
        prev_var, prev_scale = var_all, scale
    return order, scale, passes, "max-passes"


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
    _count("m", m, 2)

    n = margins.n
    rng = np.random.default_rng(cfg.rng_seed)
    walk, given = margins.family == "normal", "the margins or target law"
    if walk:  # U[-1,1]'s grid sd, from a grid dropped before the others are built
        sd_u = np.sqrt(sample_variance(discretize_quantiles(TargetDistribution.uniform(-1.0, 1.0), m)))

    unit_grid = discretize_quantiles(margins.unit_law(), m)  # rebuilt for the walk's rewrite
    target_grid = discretize_quantiles(target, m)
    if margins.family == "uniform-symmetric":
        scale = float(np.max(np.abs(target_grid)) / (n * unit_grid[-1]))
    elif walk:  # the target grid's sd over U[-1,1]'s: a ratio of sds, which cannot overflow
        scale = _NORMAL_START_SIGMA * float(np.sqrt(_row_sum_variance(target_grid[:, None], given)) / sd_u)
    else:
        scale = 1.0

    arr = np.empty((m, n + 1), dtype=np.float64, order="F")
    # A fixed-scale fit starts from one seeded shuffle of each margin column;
    # the walk keeps its sorted start, since where it settles depends on its start.
    for j in range(n):
        arr[:, j] = scale * unit_grid if walk else rng.permutation(scale * unit_grid)
    arr[:, n] = -target_grid
    del unit_grid, target_grid  # the matrix holds both
    order, scale, passes, stop_reason = _settle(arr, cfg, rng, given, scale, walk)

    if walk:
        # Each margin column becomes one multiply of the pristine unit grid,
        # killing the drift accumulated by in-place ratio multiplies and
        # making sorted column values exact.
        scaled = scale * discretize_quantiles(margins.unit_law(), m)
        for j in range(n):
            arr[order[j], j] = scaled
    del order  # the verdict reads only the margin sums
    gof = verdict(_row_sums(arr[:, :n]), target, thresholds)
    return FitReport(fitted_scale=scale, final_matrix=RearrangementMatrix(arr), ks=gof.d_ks,
                     w2=gof.t_w2, ks_threshold=gof.med_ks, w2_threshold=gof.med_w2,
                     verdict=_VERDICTS[gof.ks_ok, gof.w2_ok], iterations=passes,
                     stop_reason=stop_reason)


@dataclass(frozen=True)
class SpreadResult:
    """Two-asset dependence recovered from three marginal quantile tables."""

    copula: RearrangementMatrix
    residual_variance: float
    start: str  # the kept run's start: "given" or "shuffled"
    iterations: int
    stop_reason: str


def spread_dependence(fp_quantiles, fg_quantiles, fs_quantiles,
                      config: Optional[FitConfig] = None) -> SpreadResult:
    """Joint law of two assets consistent with a given spread law.

    Stacks the three quantile tables as [first asset, -(second asset),
    -(spread), descending] and settles it on the fit's pass loop; the joint
    sample is the first column paired with the second negated back to asset
    scale, and the achieved variance reports how close asset1 - asset2 -
    spread came to zero row by row.  A seeded shuffle of the asset columns
    runs too, and the lower residual is kept, unless the given start settles
    within the square of ``matrix._rounding_bound``, which no start can beat.
    An incompatible spread law just leaves a positive residual.
    """
    fp, fg, fs = tabs = [np.asarray(tab, dtype=np.float64)
                         for tab in (fp_quantiles, fg_quantiles, fs_quantiles)]
    for name, tab in zip(("fp", "fg", "fs"), tabs):
        if tab.ndim != 1:
            raise ValueError(f"{name}_quantiles must be a vector, got ndim={tab.ndim}")
    if not fp.size == fg.size == fs.size:
        raise ValueError(f"quantile table lengths differ: fp={fp.size} fg={fg.size} fs={fs.size}")
    if fp.size < 2:
        raise ValueError(f"quantile tables need at least 2 values, got {fp.size}")
    cfg = config or FitConfig()
    rng = np.random.default_rng(cfg.rng_seed)
    # The tables as given can stall far from a compatible join, so a seeded
    # shuffle of the two asset columns runs too; ties keep the given start.
    # Both column-major starts are filled before either run draws from rng.
    given, shuffled = starts = [np.empty((fp.size, 3), order="F") for _ in range(2)]
    given[:, 0], shuffled[:, 0] = fp, rng.permutation(fp)
    np.negative(fg, out=given[:, 1])
    np.negative(rng.permutation(fg), out=shuffled[:, 1])
    np.negative(np.sort(fs), out=given[:, 2])
    shuffled[:, 2], runs = given[:, 2], []
    for start, arr in zip(("given", "shuffled"), starts):
        passes, stop_reason = _settle(arr, cfg, rng, "the quantile tables")[2:]
        runs.append((sample_variance(_row_sums(arr)), start, arr, passes, stop_reason))
        if runs[-1][0] <= _rounding_bound(arr) ** 2:
            break  # optimal up to the row sums' rounding: no other start can beat it
    residual, start, arr, passes, stop_reason = min(runs, key=lambda run: run[0])
    copula = RearrangementMatrix(np.column_stack([arr[:, 0], -arr[:, 1]]))
    return SpreadResult(copula, residual, start, passes, stop_reason)
