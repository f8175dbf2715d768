"""Exact minimum-variance oracles and benchmark matrix constructions.

``brute_force_minimum`` finds the exact minimum of a small matrix by meet in
the middle: the row sums of every arrangement of the front columns are
paired, at their best relative row order, with those of every arrangement of
the back columns.  The other two give closed-form or by-construction minima
at sizes that search cannot reach, which is what the benchmark tables
calibrate against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matrix import RearrangementMatrix, _as_matrix, counter_permutation, sample_variance

__all__ = [
    "OracleResult",
    "brute_force_minimum",
    "haus_integer_matrix",
    "haus_integer_minimum",
    "make_zero_sum_normal_matrix",
]

# A permutation table (m! rows of m indices) up to this size is built once
# and gathered from; a larger one (only n = 3, m >= 10 fits the default
# budget) is streamed from itertools instead.
_MATERIALIZE_BYTES = 64 * 2**20
# Entries per tile of the front-by-back pairing matrix (256 KB of float64).
_TILE = 1 << 15
# Default budget of front-by-back arrangement pairs brute_force_minimum scores.
_MAX_ARRANGEMENTS = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    min_variance: float
    argmin_matrix: RearrangementMatrix
    arrangements_scanned: int


def _nth_permutation(index: int, m: int) -> list[int]:
    """The index-th element of itertools.permutations(range(m)) (lexicographic)."""
    pool = list(range(m))
    out = []
    for i in range(m - 1, -1, -1):
        q, index = divmod(index, math.factorial(i))
        out.append(pool.pop(q))
    return out


def _orders_at(index: int, m: int, r: int) -> list[list[int]]:
    """The index-th element of itertools.product(permutations(range(m)), repeat=r)."""
    digits = []
    for _ in range(r):
        index, d = divmod(index, math.factorial(m))
        digits.append(d)
    return [_nth_permutation(d, m) for d in reversed(digits)]


def _half_sum_chunks(anchor: np.ndarray, free: list, rows: int):
    """Row-sum vectors of one half of the columns, ``rows`` vectors at a time.

    ``anchor`` is the half's fixed column; each column in ``free`` runs over
    all m! orders, in itertools.product order.  Yields (index of the first
    vector, (k, m) array of row sums).
    """
    m = anchor.size
    if not free:
        yield 0, anchor[None, :].copy()
        return
    n_perms = math.factorial(m)
    count = n_perms ** len(free)
    if n_perms * m * 8 <= _MATERIALIZE_BYTES:
        perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
        tables = [col[perms] for col in free]
        for lo in range(0, count, rows):
            digits = np.unravel_index(np.arange(lo, min(lo + rows, count)), (n_perms,) * len(free))
            sums = anchor + tables[0][digits[0]]
            for table, d in zip(tables[1:], digits[1:]):
                sums += table[d]
            yield lo, sums
        return
    orders = itertools.product(itertools.permutations(range(m)), repeat=len(free))
    lo = 0
    while True:
        idx = np.array(list(itertools.islice(orders, rows)), dtype=np.intp)
        if idx.size == 0:
            return
        sums = anchor + free[0][idx[:, 0]]
        for j, col in enumerate(free[1:], start=1):
            sums += col[idx[:, j]]
        yield lo, sums
        lo += idx.shape[0]


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
    pair.  Refuses to start when the pair count exceeds the budget.
    """
    arr = _as_matrix(X).values
    m, n = arr.shape
    n_arrangements = math.factorial(m) ** (n - 2)
    if n_arrangements > max_arrangements:
        raise ValueError(
            f"brute force needs {n_arrangements} arrangements for shape ({m},{n}), "
            f"over the budget of {max_arrangements}"
        )
    k = 1 + (n - 2) // 2
    # Centred columns keep the sums of squares small; the shift is the same
    # for every arrangement, so each sum of squares is (m-1) * variance.
    centred = arr - arr.mean(axis=0)
    front_free = [centred[:, j] for j in range(1, k)]
    back_free = [centred[:, j] for j in range(k, n - 1)]

    front = np.concatenate(
        [s for _, s in _half_sum_chunks(np.sort(centred[:, 0]), front_free, max(1, _TILE // m))])
    front.sort(axis=1)
    # Rows [2 a(descending), |a|^2, 1] against [b(ascending), 1, |b|^2]: one
    # product gives every pair's sum of squares.
    lhs = np.column_stack([2.0 * front[:, ::-1], np.einsum("ij,ij->i", front, front),
                           np.ones(len(front))])
    # Near-square tiles suit the matrix product; a single front row (n = 3)
    # takes long back chunks instead.
    back_rows = max(1, _TILE // max(min(len(lhs), math.isqrt(_TILE)), m))
    front_rows = max(1, _TILE // back_rows)
    best_q = np.inf
    best_front = best_back = 0
    scanned = 0
    for lo, back in _half_sum_chunks(np.sort(centred[:, -1]), back_free, back_rows):
        back.sort(axis=1)
        rhs = np.column_stack([back, np.ones(len(back)), np.einsum("ij,ij->i", back, back)])
        for a0 in range(0, len(lhs), front_rows):
            q = lhs[a0 : a0 + front_rows] @ rhs.T
            scanned += q.size
            i, j = divmod(int(np.argmin(q)), q.shape[1])
            if q[i, j] < best_q:
                best_q = float(q[i, j])
                best_front, best_back = a0 + i, lo + j

    out = np.empty((m, n), dtype=np.float64)
    out[:, 0] = np.sort(arr[:, 0])
    for j, order in enumerate(_orders_at(best_front, m, k - 1), start=1):
        out[:, j] = arr[order, j]
    out[:, n - 1] = np.sort(arr[:, n - 1])
    for j, order in enumerate(_orders_at(best_back, m, n - k - 1), start=k):
        out[:, j] = arr[order, j]
    sigma = counter_permutation(out[:, :k].sum(axis=1), out[:, k:].sum(axis=1))
    out[:, k:] = out[sigma, k:]
    # q ranks arrangements; the reported minimum is the direct variance of
    # the rebuilt argmin, which is cleaner near zero.
    direct = sample_variance(out.sum(axis=1))
    assert abs(direct - best_q / (m - 1)) <= 1e-9 * max(1.0, abs(direct)), \
        "oracle bookkeeping drifted from the direct variance"
    return OracleResult(
        min_variance=direct,
        argmin_matrix=RearrangementMatrix(out),
        arrangements_scanned=scanned,
    )


def haus_integer_minimum(m: int, n: int) -> tuple[float, int, int]:
    """Closed-form minimum variance when every column holds 1..m.

    The total T = n*m(m+1)/2 spreads over rows at mean T/m; the best
    arrangement makes every row sum hit floor or ceil of that mean, with
    count_hi = T - m*floor high rows forced by the total.  Returns
    (min_variance, low_row_sum_value, count_of_low_rows); an integer mean
    gives variance 0 with all rows equal.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
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
    col = np.arange(1, m + 1, dtype=np.float64)
    return RearrangementMatrix(np.tile(col[:, None], (1, n)))


def make_zero_sum_normal_matrix(m: int, n: int, rng_seed: int = 0) -> RearrangementMatrix:
    """Random matrix with every row sum exactly zero and unit-variance entries.

    Rows are iid standard normal vectors, demeaned within the row, then
    rescaled by sqrt(n/(n-1)) so each entry keeps unit marginal variance in
    expectation.  The known global minimum of the row-sum variance is 0, by
    construction, which makes these matrices calibration targets.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((m, n))
    z -= z.mean(axis=1, keepdims=True)
    z *= math.sqrt(n / (n - 1))
    assert np.abs(z.sum(axis=1)).max() < 1e-12, "row sums drifted from zero"
    return RearrangementMatrix(z)
