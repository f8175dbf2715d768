"""Exact minimum-variance oracles and benchmark matrix constructions.

``brute_force_minimum`` finds the exact minimum of a small matrix by meet in
the middle: the row sums of every arrangement of the front columns are
paired, at their best relative row order, with those of every arrangement of
the back columns.  One vectorised decoder, ``_orders``, turns arrangement
numbers (lexicographic per column, the first free column slowest) into row
orders for the scan, the argmin and ``bench.enumerate_starts``.  The other two give
closed-form or by-construction minima at sizes that search cannot reach,
which is what the benchmark tables calibrate against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import RearrangementMatrix, _as_matrix, _count, counter_permutation

__all__ = [
    "OracleResult",
    "brute_force_minimum",
    "haus_integer_matrix",
    "haus_integer_minimum",
    "make_zero_sum_normal_matrix",
]

# Entries per tile of the front-by-back pairing matrix (256 KB of float64).
_TILE = 1 << 15
# Default budget of front-by-back arrangement pairs brute_force_minimum scores.
_MAX_ARRANGEMENTS = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    """``min_variance`` is ``argmin_matrix.row_sum_variance``, not the scan's pair score;
    ``arrangements_scanned`` counts the arrangements the scan covers, (m!)^(n-2)."""

    min_variance: float
    argmin_matrix: RearrangementMatrix
    arrangements_scanned: int


def _permutations(index: np.ndarray, m: int) -> np.ndarray:
    """The permutations of range(m) at lexicographic ranks ``index``, one per row.

    Each index is split into its Lehmer code (digit i counts the unused
    values below entry i); right to left, every later entry at or above
    digit i then moves up one.
    """
    out = np.empty((index.size, m), dtype=np.intp)
    for i in range(m - 1, -1, -1):
        index, out[:, i] = np.divmod(index, m - i)
    for i in range(m - 2, -1, -1):
        out[:, i + 1 :] += out[:, i + 1 :] >= out[:, i, None]
    return out


def _orders(index: np.ndarray, m: int, r: int) -> list[np.ndarray]:
    """Orders of r free columns at ``index``, the first column's rank slowest; an array a column."""
    digits = np.unravel_index(index, (math.factorial(m),) * r) if r else ()
    return [_permutations(d, m) for d in digits]


def _half_sums(anchor: np.ndarray, free: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row sums of one half of the columns, one row per arrangement in ``index``.

    ``anchor`` is the half's fixed column; the columns of ``free`` (one per
    row) take the orders ``_orders`` gives the arrangement index.
    """
    sums = np.repeat(anchor[None, :], len(index), axis=0)
    for col, order in zip(free, _orders(index, anchor.size, len(free))):
        sums += col[order]
    return sums


def _arrangements(m: int, r: int, budget: int = _MAX_ARRANGEMENTS) -> int:
    """(m!)^r, multiplied up and refused at the first product past ``budget``."""
    count = 1
    for _ in range(r):
        for i in range(2, m + 1):
            count *= i
            if count > budget:
                raise ValueError(f"({m}!)^{r} arrangements pass the budget of {budget}; "
                                 "refuse to enumerate them")
    return count


def brute_force_minimum(X, max_arrangements: int = _MAX_ARRANGEMENTS) -> OracleResult:
    """Global minimum of the row-sum variance over all column rearrangements.

    Row relabelling is free, so the front columns 0..k-1 (k = 1 + (n-2)//2)
    are taken with column 0 sorted and the back columns k..n-1 with the
    last column sorted; the back block then still moves as a whole against
    the front.  For a front with row sums a and a back with row sums b the
    best such move pairs them countermonotonically, giving the sum of
    squares |a|^2 + |b|^2 + 2 a(ascending).b(descending).  Every pair of
    front and back arrangements, (m!)^(n-2) in all, is scored that way as
    one tiled matrix product, and the argmin is rebuilt from the winning
    pair.  Refuses a pair count past the budget or a score that could
    overflow before the scan, and an argmin whose score its variance belies.
    """
    budget, arr = _count("max_arrangements", max_arrangements), _as_matrix(X).values
    m, n = arr.shape
    n_arrangements = _arrangements(m, n - 2, budget)
    k = 1 + (n - 2) // 2
    n_front = _arrangements(m, k - 1, budget)
    n_back = n_arrangements // n_front
    # Centred columns keep the sums of squares small; the shift is the same for
    # every arrangement, so each sum of squares is (m-1) * variance.  A pair's
    # score is at most 4 m B^2, B the sum of the columns' largest magnitudes.
    with np.errstate(over="ignore", invalid="ignore"):
        centred = arr - arr.mean(axis=0)
        if not np.isfinite(4 * m * np.abs(centred).max(axis=0).sum() ** 2):
            raise ValueError("the pair scores overflow: rescale the matrix")
    # front <= back and front * back <= the budget: the front is built whole.
    front = _half_sums(np.sort(centred[:, 0]), centred[:, 1:k].T, np.arange(n_front))
    front.sort(axis=1)
    # Rows [2 a(descending), |a|^2, 1] against [b(ascending), 1, |b|^2]: one
    # product gives every pair's sum of squares.
    lhs = np.column_stack([2.0 * front[:, ::-1], np.einsum("ij,ij->i", front, front),
                           np.ones(len(front))])
    # Near-square tiles suit the matrix product; a single front row (n = 3)
    # takes long back chunks instead.
    back_rows = max(1, _TILE // max(min(len(lhs), math.isqrt(_TILE)), m))
    front_rows = max(1, _TILE // back_rows)
    back_anchor, back_free = np.sort(centred[:, -1]), centred[:, k:n - 1].T
    best_q = np.inf
    best = 0  # the winning pair, numbered over all n-2 free columns
    for lo in range(0, n_back, back_rows):
        back = _half_sums(back_anchor, back_free, np.arange(lo, min(lo + back_rows, n_back)))
        back.sort(axis=1)
        rhs = np.column_stack([back, np.ones(len(back)), np.einsum("ij,ij->i", back, back)])
        for a0 in range(0, len(lhs), front_rows):
            q = lhs[a0 : a0 + front_rows] @ rhs.T
            i, j = divmod(int(np.argmin(q)), q.shape[1])
            if q[i, j] < best_q:
                best_q, best = float(q[i, j]), (a0 + i) * n_back + lo + j

    out = np.sort(arr, axis=0)  # the anchors, columns 0 and n-1, stay sorted
    for j, order in enumerate(_orders(np.array([best]), m, n - 2), start=1):
        out[:, j] = arr[order[0], j]
    sigma = counter_permutation(out[:, :k].sum(axis=1), out[:, k:].sum(axis=1))
    out[:, k:] = out[sigma, k:]
    # q ranks arrangements; the reported minimum is the rebuilt argmin's own
    # variance, which is cleaner near zero.
    argmin = RearrangementMatrix(out)
    direct = argmin.row_sum_variance
    if not abs(direct - best_q / (m - 1)) <= 1e-9 * max(1.0, direct):
        raise ValueError("the pair scores drift from the argmin's direct variance past 1e-9: "
                         "its entries cancel too much to rank arrangements")
    return OracleResult(direct, argmin, n_arrangements)


def haus_integer_minimum(m: int, n: int) -> tuple[float, int, int]:
    """Closed-form minimum variance when every column holds 1..m.

    The total T = n*m(m+1)/2 spreads over rows at mean T/m; the best
    arrangement makes every row sum hit floor or ceil of that mean, with
    count_hi = T - m*floor high rows forced by the total.  Returns
    (min_variance, low_row_sum_value, count_of_low_rows); an integer mean
    gives variance 0 with all rows equal.
    """
    m, n = _count("m", m, 2), _count("n", n, 2)
    total = n * m * (m + 1) // 2
    lo, rem = divmod(total, m)
    if rem == 0:
        return 0.0, lo, m
    count_hi = total - m * lo
    count_lo = m - count_hi
    mu = total / m
    ss = count_lo * (lo - mu) ** 2 + count_hi * (lo + 1 - mu) ** 2
    return ss / (m - 1), lo, count_lo


def haus_integer_matrix(m: int, n: int) -> RearrangementMatrix:
    """The integer test matrix itself: every column is 1..m in ascending order."""
    m, n = _count("m", m, 2), _count("n", n, 2)
    col = np.arange(1, m + 1, dtype=np.float64)
    return RearrangementMatrix(np.tile(col[:, None], (1, n)))


def make_zero_sum_normal_matrix(m: int, n: int, rng_seed: int = 0) -> RearrangementMatrix:
    """Random matrix with every row sum exactly zero and unit-variance entries.

    Rows are iid standard normal vectors, demeaned within the row, then
    rescaled by sqrt(n/(n-1)) so each entry keeps unit marginal variance in
    expectation.  The known global minimum of the row-sum variance is 0, by
    construction, which makes these matrices calibration targets.
    """
    m, n = _count("m", m, 2), _count("n", n, 2)
    rng = np.random.default_rng(_count("rng_seed", rng_seed, 0))
    z = rng.standard_normal((m, n))
    # A row's rounding grows with its length: each of the n entries carries
    # the mean's error, about eps * max|z| (the 4 is headroom).
    bound = 4 * n * np.finfo(np.float64).eps * np.abs(z).max(axis=1)
    z -= z.mean(axis=1, keepdims=True)
    z *= math.sqrt(n / (n - 1))
    assert (np.abs(z.sum(axis=1)) <= bound).all(), "row sums drifted from zero"
    return RearrangementMatrix(z)
