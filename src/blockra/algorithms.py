"""Rearrangement algorithms: column-wise RA and the two block variants.

All three drive the variance of the full row sums down by countermonotone
rearrangement; they differ in which blocks they move and when they stop.

* ``standard_ra``: cycles columns, each made countermonotone with the sum of
  the others; stops when a full sweep changes nothing.
* ``block_ra1``: repeatedly rearranges the sampled partition whose block sums
  are least opposed, stopping once the dependence measure reaches a floor.
* ``block_ra2``: applies every sampled partition each pass, stopping when a
  pass no longer improves the variance materially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dependence import (
    EXACT_PARTITION_CAP,
    _split_spearman,
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
)
from .matrix import (
    RearrangementMatrix,
    _block_move,
    _as_matrix,
    _canonical_splits,
    _column_splits,
    sample_variance,
)

__all__ = [
    "BlockRaConfig",
    "RunResult",
    "standard_ra",
    "block_ra1",
    "block_ra2",
]

# Consecutive argmax-rearrangement no-ops tolerated under partition
# subsampling before block_ra1 gives up; with full enumeration the first
# confirmed no-op already proves the algorithm is stuck.
_STALL_LIMIT = 10


@dataclass(frozen=True)
class BlockRaConfig:
    """Knobs shared by the block algorithms.

    ``n_sim`` resolves at run time to at most the 2^(n-1) - 1 canonical
    splits, and ``n_sim=None`` to min(512, 2^(n-1) - 1).  The
    dependence floor ``rho_stop`` only matters to block_ra1; the pass-level
    ``improvement_tol`` (relative, with a 1e-15 absolute floor) only to
    block_ra2.
    """

    n_sim: Optional[int] = None
    rho_stop: float = -0.9999
    improvement_tol: float = 1e-12
    max_sweeps: int = 1000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sim is not None and self.n_sim < 1:
            raise ValueError("n_sim must be positive")
        if not -1.0 <= self.rho_stop < 0.0:
            raise ValueError("rho_stop must lie in [-1, 0)")
        if self.improvement_tol < 0:
            raise ValueError("improvement_tol must be nonnegative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")

    def resolve_n_sim(self, n_columns: int) -> int:
        """Splits a pass scores on an n-column matrix; n_sim or more means all of them."""
        return _resolve_n_sim(self.n_sim, n_columns)


def _resolve_n_sim(n_sim: Optional[int], n_columns: int) -> int:
    # The one n_sim rule, shared with the target-sum fit: None means up to 512.
    return min(512 if n_sim is None else n_sim, (1 << (n_columns - 1)) - 1)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one algorithm run.

    ``stop_reason`` is one of dependence-threshold, no-improvement,
    max-iterations.  ``objective_trace`` records the row-sum variance after
    each sweep (standard RA / block RA2 pass) or iteration (block RA1),
    starting with the input's variance; it is non-increasing.
    """

    final_matrix: RearrangementMatrix
    final_objective: float
    sweeps: int
    rearrangements_applied: int
    stop_reason: str
    objective_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "final_objective": self.final_objective,
            "sweeps": self.sweeps,
            "rearrangements_applied": self.rearrangements_applied,
            "stop_reason": self.stop_reason,
            "objective_trace": list(self.objective_trace),
        }


def _run_result(arr: np.ndarray, sweeps: int, applied: int, reason: str,
                trace: list) -> RunResult:
    return RunResult(
        final_matrix=RearrangementMatrix(arr),
        final_objective=trace[-1],
        sweeps=sweeps,
        rearrangements_applied=applied,
        stop_reason=reason,
        objective_trace=tuple(trace),
    )


def _descend(mat: RearrangementMatrix, max_sweeps: int, pass_splits: Callable[[], Iterable],
             settled: Callable[[int, float, float], bool]) -> RunResult:
    """The countermonotone descent shared by standard_ra and block_ra2.

    Each sweep applies the block move for every ``(pi, comp)`` split that
    ``pass_splits()`` returns, in order, then records the row-sum variance.
    The run stops with ``no-improvement`` once ``settled(moves applied in
    the sweep, previous variance, new variance)`` holds, or with
    ``max-iterations`` after ``max_sweeps`` sweeps.
    """
    arr = mat.values.copy()
    trace = [sample_variance(arr.sum(axis=1))]
    applied = 0
    for sweep in range(1, max_sweeps + 1):
        moved = sum(_block_move(arr, pi, comp) for pi, comp in pass_splits())
        applied += moved
        trace.append(sample_variance(arr.sum(axis=1)))
        if settled(moved, trace[-2], trace[-1]):
            return _run_result(arr, sweep, applied, "no-improvement", trace)
    return _run_result(arr, max_sweeps, applied, "max-iterations", trace)


def standard_ra(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Column-cycling rearrangement to a sweep-stable point.

    Column j is rearranged countermonotonically against the sum of the other
    columns, for j = 0..n-1 in order; the run stops after the first full
    sweep that changes no column, or when the sweep budget runs out.
    """
    cfg = config or BlockRaConfig()
    mat = _as_matrix(X)
    splits = _column_splits(mat.n)
    return _descend(mat, cfg.max_sweeps, lambda: splits, lambda moved, prev, var: moved == 0)


def _pass_splits(n: int, n_sim: int, rng: np.random.Generator):
    """``(pi, comp)`` index arrays of the canonical splits for one pass.

    The full enumeration (cached, binary-counter order) when n_sim covers
    it; otherwise n_sim distinct splits, each drawn as n-1 fair bits and
    redrawn when empty or already seen.
    """
    if n_sim >= (1 << (n - 1)) - 1:
        return _canonical_splits(n)
    seen: set[bytes] = set()
    out = []
    while len(out) < n_sim:
        bits = rng.integers(0, 2, size=n - 1)
        key = bits.tobytes()
        if not bits.any() or key in seen:
            continue
        seen.add(key)
        out.append((np.flatnonzero(bits), np.append(np.flatnonzero(bits == 0), n - 1)))
    return out


def _dependence_estimate(arr: np.ndarray, n_sim: int, rng: np.random.Generator) -> float:
    """Exact measure when enumerable, sampled fallback for very wide matrices."""
    n = arr.shape[1]
    if n <= EXACT_PARTITION_CAP:
        return multivariate_dependence_exact(arr).rho
    seed = int(rng.integers(0, 2**63 - 1))
    return multivariate_dependence_sampled(arr, n_samples=n_sim, rng_seed=seed).rho


def block_ra1(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Greedy block rearrangement guided by the dependence measure.

    Each iteration samples partitions, finds the one whose block sums are
    least opposed (largest Spearman), and rearranges its complement block.
    The dependence measure is recomputed exactly every 10 iterations, and
    always before a stop is declared, to keep the exact-enumeration cost off
    the hot path.
    """
    cfg = config or BlockRaConfig()
    arr = _as_matrix(X).values.copy()
    n = arr.shape[1]
    n_sim = cfg.resolve_n_sim(n)
    full_enumeration = n_sim >= (1 << (n - 1)) - 1
    rng = np.random.default_rng(cfg.rng_seed)
    trace = [sample_variance(arr.sum(axis=1))]
    applied = 0
    sweeps = 0
    stall = 0
    reason = "max-iterations"
    check_every = 10
    for it in range(1, cfg.max_sweeps + 1):
        sweeps = it
        splits = list(_pass_splits(n, n_sim, rng))
        scores = _split_spearman(arr, (pi for pi, _ in splits))
        # Move the least opposed split; np.argmax keeps the first on ties.
        changed = _block_move(arr, *splits[int(np.argmax(scores))])
        if changed:
            applied += 1
            stall = 0
        else:
            stall += 1
        trace.append(sample_variance(arr.sum(axis=1)))
        if it % check_every == 0 or not changed:
            rho = _dependence_estimate(arr, n_sim, rng)
            if rho <= cfg.rho_stop:
                reason = "dependence-threshold"
                break
            if not changed and (full_enumeration or stall >= _STALL_LIMIT):
                reason = "no-improvement"
                break
    return _run_result(arr, sweeps, applied, reason, trace)


def block_ra2(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Exhaustive-pass block rearrangement.

    Each pass samples partitions (resampled every pass) and applies the
    countermonotone rearrangement for each in order; the run stops when a
    pass improves the row-sum variance by less than the relative tolerance
    (absolute floor 1e-15).
    """
    cfg = config or BlockRaConfig()
    mat = _as_matrix(X)
    n_sim = cfg.resolve_n_sim(mat.n)
    rng = np.random.default_rng(cfg.rng_seed)
    return _descend(mat, cfg.max_sweeps, lambda: _pass_splits(mat.n, n_sim, rng),
                    lambda moved, prev, var: prev - var < max(cfg.improvement_tol * var, 1e-15))
