"""Rearrangement algorithms: column-wise RA and the two block variants.

All three drive the variance of the full row sums down by countermonotone
rearrangement; they differ in which blocks they move and when they stop.

* ``standard_ra``: cycles columns, each made countermonotone with the sum of
  the others; stops when a full sweep changes nothing.
* ``block_ra1``: repeatedly rearranges the sampled partition whose block sums
  are least opposed, stopping once the dependence measure reaches a floor
  or the variance stalls.
* ``block_ra2``: applies every sampled partition each pass, stopping when a
  pass no longer improves the variance materially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
    _count,
    _pass_masks,
    _resolve_n_sim,
    _split_masks,
    _split_of_mask,
    sample_variance,
)

__all__ = [
    "BlockRaConfig",
    "RunResult",
    "standard_ra",
    "block_ra1",
    "block_ra2",
]

# Iterations in a row that do not lower the variance (a no-op, or a move
# that only reorders rows whose block sums tie) before block_ra1 gives up;
# with full enumeration the first no-op already proves it is stuck.
_STALL_LIMIT = 10

# Splits block_ra2 screens at once (see _screened); chunks of 16, 64 and 128
# were no faster on 10x8 and 10x10 starts.
_SCREEN_CHUNK = 32


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
        if self.n_sim is not None:
            _count("n_sim", self.n_sim)
        if not -1.0 <= self.rho_stop < 0.0:
            raise ValueError("rho_stop must lie in [-1, 0)")
        if not self.improvement_tol >= 0:
            raise ValueError("improvement_tol must be nonnegative")
        _count("max_sweeps", self.max_sweeps)
        _count("rng_seed", self.rng_seed, 0)

    def resolve_n_sim(self, n_columns: int) -> int:
        """Splits a pass scores on an n-column matrix; n_sim or more means all of them."""
        return _resolve_n_sim(self.n_sim, n_columns)


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


def _descend(arr: np.ndarray, max_sweeps: int, sweep: Callable[[Callable[[int], bool]], int],
             stop: Callable[[int, int, float, float], Optional[str]]) -> RunResult:
    """The countermonotone descent loop of all three algorithms.

    Each sweep is ``sweep(move)`` and returns the moves it applied: ``move(mask)``
    applies the block move for the split of bitmask ``mask`` (decoded here alone, by
    ``_split_of_mask``) to ``arr`` in place and returns whether ``arr`` changed.  Then
    ``stop(sweeps done, moves applied in the sweep, previous row-sum variance, new one)``
    returns the stop reason, or None to go on; after ``max_sweeps`` sweeps it is
    ``max-iterations``.
    """
    n, cols, applied = arr.shape[1], list(arr.T), 0
    trace = [sample_variance(arr.sum(axis=1))]

    def move(mask: int) -> bool:
        return _block_move(arr, cols, *_split_of_mask(mask, n))

    for done in range(1, max_sweeps + 1):
        moved = sweep(move)
        applied += moved
        trace.append(sample_variance(arr.sum(axis=1)))
        if reason := stop(done, moved, trace[-2], trace[-1]):
            break
    else:
        reason = "max-iterations"
    return RunResult(RearrangementMatrix(arr), trace[-1], done, applied, reason, tuple(trace))


def standard_ra(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Column-cycling rearrangement to a sweep-stable point.

    Column j is rearranged countermonotonically against the sum of the other
    columns, for j = 0..n-1 in order; the run stops after the first full
    sweep that changes no column, or when the sweep budget runs out.
    """
    cfg = config or BlockRaConfig()
    arr = _as_matrix(X).values.copy()
    n = arr.shape[1]
    masks = [(1 << n) - 1 - (1 << j) for j in range(n)]
    return _descend(arr, cfg.max_sweeps, lambda move: sum(map(move, masks)),
                    lambda sweep, moved, prev, var: None if moved else "no-improvement")


def block_ra1(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Greedy block rearrangement guided by the dependence measure.

    Each iteration samples partitions, finds the one whose block sums are
    least opposed (largest Spearman), and rearranges its complement block.
    The dependence measure is rechecked every 10 iterations and before a stall
    is declared, exactly up to EXACT_PARTITION_CAP columns and sampled beyond
    (seeded off the run's generator), and the run stops once it reaches
    ``rho_stop``.  It stalls at the first no-op under full enumeration, or
    after _STALL_LIMIT iterations in a row that do not lower the variance.
    """
    cfg = config or BlockRaConfig()
    arr = _as_matrix(X).values.copy()
    n = arr.shape[1]
    n_sim = cfg.resolve_n_sim(n)
    full_enumeration = n_sim >= (1 << (n - 1)) - 1
    rng = np.random.default_rng(cfg.rng_seed)
    flat = 0

    def least_opposed():
        masks = _pass_masks(n, n_sim, rng)
        scores, _ = _split_spearman(arr, masks)
        # np.argmax keeps the first split on ties.
        return masks[int(np.argmax(scores))]

    def stop(sweep, moved, prev, var):
        nonlocal flat
        flat = flat + 1 if var >= prev else 0
        stalled = flat >= _STALL_LIMIT or (full_enumeration and not moved)
        if sweep % 10 and moved and not stalled:
            return None
        rho = (multivariate_dependence_exact(arr) if n <= EXACT_PARTITION_CAP else
               multivariate_dependence_sampled(arr, n_sim, int(rng.integers(0, 2**63 - 1)))).rho
        if rho <= cfg.rho_stop:
            return "dependence-threshold"
        return "no-improvement" if stalled else None

    return _descend(arr, cfg.max_sweeps, lambda move: move(least_opposed()), stop)


def _screened(arr: np.ndarray, move: Callable[[int], bool]) -> int:
    """``move`` over ``arr``'s canonical split bitmasks in order, less those certified not to move it.

    Certified: over rows ordered by first-block sum, those sums rise and the complement
    sums fall by more than the rounding bound ``tol`` at each step, so counter_permutation
    returns the identity.  Screens read the live ``arr``; after a move, splits go unscreened
    until one is a no-op, as moves come in runs.  Returns the moves applied.
    """
    n = arr.shape[1]
    count = (1 << (n - 1)) - 1
    # Moves keep each column's values, so the bound is the same every pass.
    tol = 4 * (n + 2) * np.finfo(np.float64).eps * np.abs(arr).max(axis=0).sum()
    rows, start, applied = np.arange(_SCREEN_CHUNK)[:, None], 0, 0
    while start < count:
        end = start + _SCREEN_CHUNK
        first = _split_masks(n)[start:end] @ arr.T  # and the complement: total - first
        at = (rows[:len(first)], first.argsort(axis=1))
        first, rest = first[at], (arr.sum(axis=1) - first)[at]
        gaps = np.minimum(first[:, 1:] - first[:, :-1], rest[:, :-1] - rest[:, 1:])
        for mask in (start + 1 + np.flatnonzero(gaps.min(axis=1) <= tol)).tolist():
            if move(mask):  # run on to the no-op at mask end; screening resumes at index end
                applied, end = applied + 1, mask + 1
                while end <= count and move(end):
                    applied, end = applied + 1, end + 1
                break
        start = end
    return applied


def block_ra2(X, config: Optional[BlockRaConfig] = None) -> RunResult:
    """Exhaustive-pass block rearrangement.

    Each pass samples partitions (resampled every pass) and applies the
    countermonotone rearrangement for each in order; the run stops when a
    pass improves the row-sum variance by less than the relative tolerance
    (absolute floor 1e-15).  Full passes over 8 to 10 columns go through
    :func:`_screened`, so certified no-op moves never reach the kernel.
    """
    cfg = config or BlockRaConfig()
    arr = _as_matrix(X).values.copy()
    n = arr.shape[1]
    n_sim = cfg.resolve_n_sim(n)
    rng = np.random.default_rng(cfg.rng_seed)
    screen = 8 <= n <= 10 and n_sim == (1 << (n - 1)) - 1

    def sweep(move):
        return _screened(arr, move) if screen else sum(map(move, _pass_masks(n, n_sim, rng)))

    def stop(sweep, moved, prev, var):
        return "no-improvement" if prev - var < max(cfg.improvement_tol * var, 1e-15) else None

    return _descend(arr, cfg.max_sweeps, sweep, stop)
