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

from .matrix import (Partition, _as_matrix, _canonical_columns, _mask_columns, _mask_sums,
                     _row_masks, rank_vector)

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
    no rank variance, so the coefficient is undefined).  Tie-free inputs
    take an exact integer path so perfectly opposite orderings return -1.0
    exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two vectors of equal length")
    m = x.size
    if m < 2:
        raise ValueError("spearman needs at least 2 observations")
    rx = rank_vector(x)
    ry = rank_vector(y)
    ux = np.unique(x).size
    uy = np.unique(y).size
    if ux == 1:
        raise ValueError("undefined Spearman: first input is constant")
    if uy == 1:
        raise ValueError("undefined Spearman: second input is constant")
    if ux == m and uy == m:
        d = rx.astype(np.int64) - ry.astype(np.int64)
        d2 = int(np.sum(d * d, dtype=np.int64))
        denom = m * (m * m - 1)
        return 1.0 - 6.0 * d2 / denom
    rx -= rx.mean()
    ry -= ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    return float(np.dot(rx, ry) / (sx * sy))


# Block-sum cells a chunk of splits holds per side: a chunk takes
# max(1, _CHUNK_CELLS // m) splits, so each of its 2k-row arrays holds about
# 2^15 numbers (256 KB) whatever m is.  A fixed 512 splits a chunk raised
# the peak RSS of the `search` benchmark from 66 to 106 MB (its 1000 x 10 job).
_CHUNK_CELLS = 1 << 14


def _split_spearman(arr: np.ndarray, masks: Iterable[int]) -> tuple[np.ndarray, int]:
    """Spearman correlation between the two block sums of each split, in order.

    Each split is the bitmask of its first block's columns (bit j for
    column j; any of the n may be in it), summed by :func:`_mask_sums`.  The
    one scoring loop of both measures and of block_ra1's choice of move.
    Splits are scored in chunks: one argsort ranks both sides of every
    split in a chunk, tie-free pairs take spearman's integer formula, and
    pairs with a tie go to :func:`spearman` itself, so every value is the one
    it would return.  A split with a constant block sum scores -1, as no
    reordering can change its row-sum variance; returns the scores and the
    count of such splits.
    """
    m = arr.shape[0]
    total = arr.sum(axis=1)
    per_chunk = max(1, _CHUNK_CELLS // m)
    masks = iter(masks)
    values = [np.empty(0)]
    constant = 0
    while chunk := list(itertools.islice(masks, per_chunk)):
        k = len(chunk)
        # Row j holds split j's first-block sums and row k + j the rest: the
        # chunk's m x 2k block-sum matrix, transposed so each side is one row.
        first = _mask_sums(arr, chunk, _CHUNK_CELLS)
        sums = np.concatenate((first, total - first))
        # Ranks are used only where a row has no tie, and there every sort
        # gives the same order, so the faster unstable default is safe.
        order = sums.argsort(axis=1)
        ranked = np.take_along_axis(sums, order, axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(1, m + 1)[None, :], axis=1)
        # Strictly increasing sorted sums: no tie (a signed zero pair counts).
        distinct = (ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        d = ranks[:k] - ranks[k:]
        rho = 1.0 - 6.0 * np.einsum("ij,ij->i", d, d) / (m * (m * m - 1))
        for j in np.flatnonzero(~(distinct[:k] & distinct[k:])):
            if (ranked[[j, k + j], 0] == ranked[[j, k + j], -1]).any():
                rho[j], constant = -1.0, constant + 1
            else:
                rho[j] = spearman(sums[j], sums[k + j])
        values.append(rho)
    return np.concatenate(values), constant


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
    values, constant = _split_spearman(arr, range(1, 1 << (n - 1)))
    keys = [pi for pi, _ in _canonical_columns(n)]
    worst = int(np.argmax(values))
    return DependenceReport(
        rho=math.fsum(values) / len(keys),
        mode="exact",
        partitions_evaluated=len(keys),
        constant_splits=constant,
        worst_partition=keys[worst],
        worst_value=float(values[worst]),
        per_partition=dict(zip(keys, values.tolist())),
    )


def multivariate_dependence_sampled(X, n_samples: int, rng_seed: int) -> DependenceReport:
    """Monte-Carlo estimate of the exact measure.

    Each draw is an iid Bernoulli(1/2) column indicator vector, rejected
    unless both blocks are nonempty; the estimator is unbiased because every
    unordered split is hit with equal probability.  Deterministic per seed.
    """
    arr = _as_matrix(X).values
    n = arr.shape[1]
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    masks: list[int] = []
    while len(masks) < n_samples:  # no more rows than drawing one at a time takes
        rows = _row_masks(rng.integers(0, 2, size=(n_samples - len(masks), n)))
        masks += (mask for mask in rows if 0 < mask < (1 << n) - 1)
    values, constant = _split_spearman(arr, masks)
    worst = int(np.argmax(values))
    return DependenceReport(
        rho=float(math.fsum(values) / n_samples),
        mode="sampled",
        partitions_evaluated=n_samples,
        constant_splits=constant,
        worst_partition=Partition(_mask_columns(masks[worst], n)[0], n).canonical().pi,
        worst_value=float(values[worst]),
        per_partition=None,
    )
