"""Multivariate dependence diagnostics over two-block column partitions.

The headline quantity is the average, over every unordered two-block split of
the columns, of the Spearman correlation between the two block sums.  It is
-1 exactly when every split is countermonotone or has a constant block sum,
which is the stopping target for the block rearrangement algorithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .matrix import _as_matrix, _canonical_columns, _fair_masks, _mask_columns, _mask_sums

__all__ = [
    "DependenceReport",
    "spearman",
    "multivariate_dependence_exact",
    "multivariate_dependence_sampled",
]

EXACT_PARTITION_CAP = 20  # columns; 2^(cap-1) - 1 partitions is the real limit


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks.

    NaN and constant input are errors (NaN has no rank; constant input has
    no rank variance, so the coefficient is undefined).  The value is the
    one-pair case of :func:`_spearman_pairs`, so tie-free inputs take its
    exact integer path and perfectly opposite orderings return -1.0 exactly.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two vectors of equal length")
    if x.size < 2:
        raise ValueError("spearman needs at least 2 observations")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("spearman: NaN has no rank")
    # Equality, not np.ptp: an all-inf input is constant, and its ptp is NaN.
    if (x == x[0]).all():
        raise ValueError("undefined Spearman: first input is constant")
    if (y == y[0]).all():
        raise ValueError("undefined Spearman: second input is constant")
    return float(_spearman_pairs([np.stack((x, y))])[0][0])


def _midranks(ranked: np.ndarray, order: np.ndarray) -> np.ndarray:
    """1-based midranks of the rows that ``order`` sorts into ``ranked``, in the rows' own order.

    A run of tied values shares the mean of the sorted positions it fills,
    so the midranks do not depend on how a sort orders tied values.
    """
    t, m = ranked.shape
    pos = np.arange(1, m + 1)
    starts = np.ones((t, m + 1), dtype=bool)  # column j: a run starts at j, so one ends at j - 1
    starts[:, 1:-1] = ranked[:, 1:] != ranked[:, :-1]
    first = np.where(starts[:, :-1], pos, 0)
    np.maximum.accumulate(first, axis=1, out=first)
    last = np.where(starts[:, :0:-1], pos[::-1], m)
    first += np.minimum.accumulate(last, axis=1, out=last)[:, ::-1]
    del last  # before the scatter: long tied rows would hold one more m-array
    mid = np.empty((t, m))
    np.put_along_axis(mid, order, first, axis=1)  # the 1-based run start plus run end, exact
    mid /= 2.0
    return mid


def _spearman_pairs(chunks: Iterable[np.ndarray]) -> tuple[np.ndarray, int]:
    """Spearman correlation of rows j and k + j of each 2k-row chunk, chunk by chunk.

    One argsort ranks every row of a chunk.  Tie-free pairs take the integer
    formula, tied pairs the correlation of their midranks through ``np.sum``
    and a matmul dot, as one pair at a time would, bit for bit.  A pair with
    a constant row scores -1 and is counted; returns the scores and that
    count.  The chunk loop stays in this one call: a call per chunk freed
    each chunk's arrays at once, and heap trims slowed tie-free scoring.
    """
    values, constant = [np.empty(0)], 0
    for sums in chunks:
        k, m = sums.shape[0] // 2, sums.shape[1]
        # Every sort gives tie-free rows the same order, and midranks do not
        # depend on the order of tied values, so the faster unstable default is safe.
        order = sums.argsort(axis=1)
        ranked = np.take_along_axis(sums, order, axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(1, m + 1)[None, :], axis=1)
        d = ranks[:k] - ranks[k:]
        rho = 1.0 - 6.0 * np.einsum("ij,ij->i", d, d) / (m * (m * m - 1))
        flat = (ranked[:, 0] == ranked[:, -1]).reshape(2, k).any(axis=0)
        rho[flat] = -1.0
        constant += int(np.count_nonzero(flat))
        # Strictly increasing sorted sums: no tie (a signed zero pair counts).
        distinct = (ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        tied = np.flatnonzero(~(distinct[:k] & distinct[k:] | flat))
        if t := tied.size:
            rows = np.concatenate((tied, k + tied))
            r = _midranks(ranked[rows], order[rows])
            r -= r.mean(axis=1, keepdims=True)
            norm = np.sqrt(np.sum(r * r, axis=1))
            rho[tied] = (r[:t, None, :] @ r[t:, :, None])[:, 0, 0] / (norm[:t] * norm[t:])
        values.append(rho)
    return np.concatenate(values), constant


# Block-sum cells a chunk of splits holds per side: a chunk takes
# max(1, _CHUNK_CELLS // m) splits, so each of its 2k-row arrays holds about
# 2^15 numbers (256 KB) whatever m is.  A fixed 512 splits a chunk raised
# the peak RSS of the `search` benchmark from 66 to 106 MB (its 1000 x 10 job).
_CHUNK_CELLS = 1 << 14


def _split_spearman(arr: np.ndarray, masks: Iterable[int]) -> tuple[np.ndarray, int]:
    """Spearman correlation between the two block sums of each split, in order.

    Each split is the bitmask of its first block's columns (bit j for
    column j; any of the n may be in it).  The one scoring loop of both
    measures and of block_ra1's choice of move: :func:`_mask_sums` gives
    the first-block sums of max(1, _CHUNK_CELLS // m) splits at a time and
    :func:`_spearman_pairs` scores each chunk.  Returns the scores and the
    count of splits with a constant block sum, which score -1: no
    reordering can change their row-sum variance.
    """
    m = arr.shape[0]
    total = arr.sum(axis=1)
    per_chunk = max(1, _CHUNK_CELLS // m)
    masks = iter(masks)
    chunks = iter(lambda: list(itertools.islice(masks, per_chunk)), [])
    firsts = (_mask_sums(arr, chunk, _CHUNK_CELLS) for chunk in chunks)
    # Row j of a chunk holds split j's first-block sums and row k + j the rest.
    return _spearman_pairs(np.concatenate((first, total - first)) for first in firsts)


def _mean_score(values: np.ndarray) -> float:
    """The measure from its split scores: their mean, summed exactly."""
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class DependenceReport:
    """Result of a dependence-measure evaluation.

    ``worst_partition`` is the split whose block sums are least opposed
    (largest Spearman value), the natural next rearrangement target.
    ``constant_splits`` counts the splits scored -1 for a constant block sum.
    """

    rho: float
    mode: str
    partitions_evaluated: int
    constant_splits: int
    worst_partition: tuple[int, ...]
    worst_value: float
    per_partition: Optional[dict[tuple[int, ...], float]] = None


def _dependence_report(arr: np.ndarray, masks, mode: str) -> DependenceReport:
    """The report on the splits whose first blocks are the bitmasks ``masks`` (a sequence)."""
    n = arr.shape[1]
    values, constant = _split_spearman(arr, masks)
    worst = int(np.argmax(values))
    mask = masks[worst]
    return DependenceReport(
        rho=_mean_score(values),
        mode=mode,
        partitions_evaluated=len(values),
        constant_splits=constant,
        worst_partition=_mask_columns(mask, n)[mask >> (n - 1)],  # the block without column n-1
        worst_value=float(values[worst]),
        per_partition=(dict(zip(_canonical_columns(n), values.tolist()))
                       if mode == "exact" else None),
    )


def multivariate_dependence_exact(X) -> DependenceReport:
    """Average block-sum Spearman over the full canonical partition enumeration.

    Walks all 2^(n-1) - 1 canonical splits (last column always in the
    complement).  Refuses n > EXACT_PARTITION_CAP; use the sampled
    estimator there.
    """
    arr = _as_matrix(X).values
    n = arr.shape[1]
    if n > EXACT_PARTITION_CAP:
        raise ValueError(
            f"exact enumeration needs 2^{n - 1}-1 partitions for n={n} > "
            f"cap={EXACT_PARTITION_CAP}; use multivariate_dependence_sampled"
        )
    return _dependence_report(arr, range(1, 1 << (n - 1)), "exact")


def multivariate_dependence_sampled(X, n_samples: int, rng_seed: int) -> DependenceReport:
    """Monte-Carlo estimate of the exact measure.

    Each draw is an iid Bernoulli(1/2) column indicator vector from the
    package's one sampler, ``matrix._fair_masks``, rejected unless both
    blocks are nonempty; the estimator is unbiased because every unordered
    split is hit with equal probability.  Deterministic per seed.
    """
    arr = _as_matrix(X).values
    n = arr.shape[1]
    if n_samples < 1:
        raise ValueError("need at least one sample")
    masks = _fair_masks(np.random.default_rng(rng_seed), n, n_samples, (1 << n) - 1)
    return _dependence_report(arr, masks, "sampled")
