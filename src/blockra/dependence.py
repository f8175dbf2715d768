"""Multivariate dependence diagnostics over two-block column partitions.

The headline quantity is the average, over every unordered two-block split of
the columns, of the Spearman correlation between the two block sums.  It is
-1 exactly when every split is countermonotone, which is the stopping target
for the block rearrangement algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .matrix import Partition, _as_matrix, _block_sums, _canonical_splits, rank_vector

__all__ = [
    "DependenceReport",
    "spearman",
    "multivariate_dependence_exact",
    "multivariate_dependence_sampled",
]

EXACT_PARTITION_CAP = 20  # columns; 2^(cap-1) - 1 partitions is the real limit


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks.

    Constant input is an error (rank variance vanishes and the coefficient
    is undefined).  Tie-free inputs take an exact integer path so perfectly
    opposite orderings return -1.0 exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two vectors of equal length")
    m = x.size
    if m < 2:
        raise ValueError("spearman needs at least 2 observations")
    ux = np.unique(x).size
    uy = np.unique(y).size
    if ux == 1:
        raise ValueError("undefined Spearman: first input is constant")
    if uy == 1:
        raise ValueError("undefined Spearman: second input is constant")
    rx = rank_vector(x)
    ry = rank_vector(y)
    if ux == m and uy == m:
        d = rx.astype(np.int64) - ry.astype(np.int64)
        d2 = int(np.sum(d * d, dtype=np.int64))
        denom = m * (m * m - 1)
        return 1.0 - 6.0 * d2 / denom
    rx -= rx.mean()
    ry -= ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined Spearman: constant ranks")
    return float(np.dot(rx, ry) / (sx * sy))


def _split_spearman(arr: np.ndarray, pis: Iterable[np.ndarray]) -> np.ndarray:
    """Spearman correlation between the two block sums of each split, in order.

    ``pis`` holds the intp column indices of each split's first block.  The
    one scoring loop of both measures and of block_ra1's choice of move.
    """
    total = arr.sum(axis=1)
    values = []
    for pi in pis:
        s_pi = _block_sums(arr, pi)
        values.append(spearman(s_pi, total - s_pi))
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class DependenceReport:
    """Result of a dependence-measure evaluation.

    ``worst_partition`` is the split whose block sums are least opposed
    (largest Spearman value), the natural next rearrangement target.
    """

    rho: float
    mode: str
    partitions_evaluated: int
    worst_partition: tuple[int, ...]
    worst_value: float
    per_partition: Optional[dict[tuple[int, ...], float]] = None

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "mode": self.mode,
            "partitions_evaluated": self.partitions_evaluated,
            "worst_partition": list(self.worst_partition),
            "worst_value": self.worst_value,
        }


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
    keys: list[tuple[int, ...]] = []

    def first_blocks():
        for pi, _ in _canonical_splits(n):
            keys.append(tuple(pi.tolist()))
            yield pi

    values = _split_spearman(arr, first_blocks())
    worst = int(np.argmax(values))
    return DependenceReport(
        rho=math.fsum(values) / len(keys),
        mode="exact",
        partitions_evaluated=len(keys),
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
    pis = []
    while len(pis) < n_samples:
        indicator = rng.integers(0, 2, size=n)
        if 0 < int(indicator.sum()) < n:
            pis.append(np.flatnonzero(indicator))
    values = _split_spearman(arr, pis)
    worst = int(np.argmax(values))
    return DependenceReport(
        rho=float(math.fsum(values) / n_samples),
        mode="sampled",
        partitions_evaluated=n_samples,
        worst_partition=Partition(tuple(pis[worst].tolist()), n).canonical().pi,
        worst_value=float(values[worst]),
        per_partition=None,
    )
