"""Core matrix model: fixed column margins, block sums, countermonotone rearrangement.

A rearrangement matrix is an m-by-n array whose columns are fixed multisets;
the only admissible operation is reordering values within columns.  Everything
else in this package (dependence diagnostics, block algorithms, oracles, the
target-sum fitting workflow) is built on the handful of primitives here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "RearrangementMatrix",
    "Partition",
    "rank_vector",
    "sample_variance",
    "countermonotone_rearrange",
    "read_matrix_csv",
    "write_matrix_csv",
]


@dataclass(frozen=True)
class RearrangementMatrix:
    """Immutable m-by-n float matrix whose columns are fixed multisets.

    Rows index joint realizations, columns index components.  m >= 2 and
    n >= 2; a single-row matrix admits no rearrangement and is rejected.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={arr.ndim}")
        m, n = arr.shape
        if m < 2:
            raise ValueError(f"need at least 2 rows, got m={m}")
        if n < 2:
            raise ValueError(f"need at least 2 columns, got n={n}")
        # A non-finite entry makes its row sum non-finite too, so one check
        # on the row sums covers entries and overflowing sums alike.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = arr.sum(axis=1)
        if not np.isfinite(sums).all():
            row = int(np.flatnonzero(~np.isfinite(sums))[0])
            if not np.isfinite(arr[row]).all():
                raise ValueError("matrix entries must be finite")
            raise ValueError(f"row {row} sums to {sums[row]}: row sums must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _as_matrix(X) -> RearrangementMatrix:
    """``X`` itself if it is a RearrangementMatrix, else ``X`` validated into one."""
    return X if isinstance(X, RearrangementMatrix) else RearrangementMatrix(X)


@dataclass(frozen=True)
class Partition:
    """An ordered two-block split of the column index set.

    ``pi`` holds the indices (0-based) of the first block; the complement is
    the second block, the one rearrangement operations physically move.  The
    canonical representative of an unordered split excludes the last column
    from ``pi``, which is what enumeration and reporting use.
    """

    pi: tuple[int, ...]
    n_columns: int

    def __post_init__(self) -> None:
        pi = tuple(sorted(int(j) for j in self.pi))
        n = int(self.n_columns)
        if not 0 < len(pi) < n:
            raise ValueError("empty partition side")
        if len(set(pi)) != len(pi):
            raise ValueError(f"duplicate column indices in {pi}")
        if pi[0] < 0 or pi[-1] >= n:
            raise ValueError(f"column index out of range for n={n}: {pi}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "n_columns", n)

    def complement(self) -> tuple[int, ...]:
        keep = set(self.pi)
        return tuple(j for j in range(self.n_columns) if j not in keep)

    @classmethod
    def from_mask(cls, mask: int, n_columns: int) -> "Partition":
        """Canonical partition from a nonzero bitmask over the first n-1 columns."""
        if not 0 < mask < 1 << (n_columns - 1):
            raise ValueError(f"mask {mask} names no split of {n_columns} columns")
        return cls(_mask_columns(mask, n_columns - 1)[0], n_columns)


def sample_variance(s: np.ndarray) -> float:
    """Sample variance with m-1 divisor, the objective convention package-wide.

    numpy's ``var(ddof=1)`` steps called directly: its bits, not its overhead.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size < 2:
        raise ValueError("sample variance needs at least 2 values")
    d = s - np.add.reduce(s, axis=None) / s.size
    return float(np.add.reduce(np.square(d, out=d), axis=None) / (s.size - 1))


def _row_sum_variance(arr: np.ndarray) -> float:
    """``sample_variance`` of the row sums of ``arr``; ValueError, with no warning, if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = sample_variance(arr.sum(axis=1))
    if not np.isfinite(v):
        raise ValueError("the row-sum variance overflows: rescale the matrix")
    return v


def rank_vector(v) -> np.ndarray:
    """1-based ranks of a vector; tied values get their midrank (the Spearman convention)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("rank_vector expects a 1-D vector")
    if np.isnan(v).any():
        raise ValueError("rank_vector: NaN has no rank")
    m = v.size
    order = np.argsort(v, kind="stable")
    ranks = np.empty(m, dtype=np.float64)
    sorted_v = v[order]
    # Midranks: average the 1-based positions within each run of equal values.
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    ends = np.r_[starts[1:], m]
    mid_per_run = (starts + ends - 1) / 2.0 + 1.0
    ranks[order] = np.repeat(mid_per_run, ends - starts)
    return ranks


def counter_permutation(target: np.ndarray, block_sums: np.ndarray) -> np.ndarray:
    """Permutation placing block rows countermonotonically against target sums.

    Returns sigma with new_block[i] = old_block[sigma[i]]: the row whose
    target sum is smallest receives the largest block sum.  Ties in the
    target keep the current relative block assignment, so an input that is
    already countermonotone (up to ties) maps to the identity.
    """
    target = np.asarray(target, dtype=np.float64)
    neg = -np.asarray(block_sums, dtype=np.float64)
    # Rows by block sum descending, ties by position.  A stable sort of the
    # targets in that order puts positions in target order and, among tied
    # targets, the position currently holding the larger block sum first,
    # so it keeps it (the same order as lexsort((neg, target))).
    order_rows = neg.argsort(kind="stable")
    order_pos = order_rows.take(target.take(order_rows).argsort(kind="stable"))
    sigma = np.empty(target.size, dtype=np.intp)
    sigma[order_pos] = order_rows
    return sigma


@functools.lru_cache(maxsize=8)
def _identity_bytes(m: int) -> bytes:
    return np.arange(m, dtype=np.intp).tobytes()


def _mask_columns(mask: int, bits: int, offset: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columns ``offset + j`` (j < bits) whose bit j in ``mask`` is set, then those clear."""
    return (tuple(offset + j for j in range(bits) if mask >> j & 1),
            tuple(offset + j for j in range(bits) if not mask >> j & 1))


# Holds every canonical split of up to 14 columns; a full pass over more
# decodes each split again.
@functools.lru_cache(maxsize=8192)
def _split_of_mask(mask: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(pi, comp)`` intp column indices of the split whose first block is bitmask ``mask``.

    Bit j of ``mask`` (j < n) puts column j in the first block, a clear bit
    in the complement.  A canonical mask (below 2^(n-1)) leaves the last
    column in the complement, as in ``Partition.from_mask``.
    """
    pair = tuple(np.array(cols, dtype=np.intp) for cols in _mask_columns(mask, n))
    for idx in pair:
        idx.setflags(write=False)  # shared through the cache
    return pair


@functools.lru_cache(maxsize=None)
def _split_masks(n: int) -> np.ndarray:
    """Row k is 1.0 on the first block of the split with mask k + 1, 0.0 elsewhere."""
    masks = (np.arange(1, 1 << (n - 1))[:, None] >> np.arange(n) & 1).astype(np.float64)
    masks.setflags(write=False)  # shared through the cache
    return masks


def _canonical_columns(n: int) -> Iterable[tuple[int, ...]]:
    """First-block column tuples of the canonical splits with masks 1 .. 2^(n-1) - 1."""
    # Masks in order are the high bits outer, the low bits inner, so each
    # split joins a low pattern's column tuple to a high pattern's rather
    # than scanning all n - 1 bits.
    low_bits = min(n - 1, 9)
    lows = [_mask_columns(low, low_bits)[0] for low in range(1 << low_bits)]
    for high in range(1 << (n - 1 - low_bits)):
        high_pi = _mask_columns(high, n - 1 - low_bits, low_bits)[0]
        for pi in lows[0 if high else 1:]:
            yield pi + high_pi


def _row_masks(bits: np.ndarray) -> list[int]:
    """The bitmask of each 0/1 row of ``bits`` (bit j for column j), a Python int of any width."""
    weights = [1 << j for j in range(bits.shape[1])]  # 64 or more bits overflow an int64
    return (bits @ np.array(weights, dtype=np.int64 if len(weights) < 64 else object)).tolist()


def _mask_sums(arr: np.ndarray, masks: list[int], cells: int) -> np.ndarray:
    """Row k holds the row sums of ``arr`` over the columns in bitmask ``masks[k]``.

    Each is the left-to-right chain of :func:`_block_sums`, bit for bit but
    for the sign of a zero.  A table of the sums over every subset of the
    low L columns (the largest L < n with 2^L m <= ``cells``, else 0) gives each
    mask's low part; each higher column then joins, in ascending order.
    """
    m, n = arr.shape
    low_bits = min(n - 1, max(0, (cells // m).bit_length() - 1))
    table = np.zeros((1 << low_bits, m))  # a one-column -0.0 block then sums to +0.0
    for b in range(low_bits):
        np.add(table[:1 << b], arr[:, b], out=table[1 << b:2 << b])
    masks = np.array(masks, dtype=np.int64 if n < 64 else object)
    first = table[(masks & (1 << low_bits) - 1).astype(np.intp)]
    for b in range(low_bits, n):
        first[np.flatnonzero(masks >> b & 1)] += arr[:, b]
    return first


def _block_sums(arr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row sums over the columns ``cols`` (intp indices); one column is a view.

    Fancy indexing gathers the block column-major, so the columns are added
    left to right; a row-major gather (take) would sum eight or more columns
    in another order and change the last bits.
    """
    return arr[:, cols].sum(axis=1) if cols.size > 1 else arr[:, cols[0]]


def _block_move(arr: np.ndarray, pi: np.ndarray, comp: np.ndarray) -> bool:
    """Apply the countermonotone rearrangement to ``arr`` in place.

    ``pi`` and ``comp`` are intp column indices of the two blocks.  Rows of
    the complement block move jointly; the pi block is untouched.  Returns
    True when the matrix changed.
    """
    s_pi = _block_sums(arr, pi)
    block = arr[:, comp]
    s_bar = block.sum(axis=1) if comp.size > 1 else block[:, 0]
    sigma = counter_permutation(s_pi, s_bar)
    if sigma.tobytes() == _identity_bytes(sigma.size):
        return False
    moved = block.take(sigma, axis=0)
    if (moved == block).all():
        return False
    arr[:, comp] = moved
    return True


def countermonotone_rearrange(X, pi: Partition) -> RearrangementMatrix:
    """Jointly permute the complement block so its sums oppose the pi-block sums.

    The first block of ``pi`` stays fixed; rows of the complement block are
    jointly reordered so the complement sums are ordered opposite to the
    pi-block sums.  Never increases the variance of the full row sums;
    raises ValueError when that variance overflows.
    """
    mat = _as_matrix(X)
    if pi.n_columns != mat.n:
        raise ValueError(f"partition is over {pi.n_columns} columns, matrix has {mat.n}")
    arr = np.array(mat.values, copy=True)
    var_before = _row_sum_variance(arr)
    _block_move(arr, np.array(pi.pi, dtype=np.intp), np.array(pi.complement(), dtype=np.intp))
    var_after = sample_variance(arr.sum(axis=1))
    # Rearrangement inequality guarantees this up to roundoff.
    assert var_after <= var_before + 1e-12 * max(1.0, var_before), \
        "countermonotone rearrangement increased variance"
    return RearrangementMatrix(arr)


def write_matrix_csv(X, path) -> None:
    """Comma-separated rows, no header, 17 significant digits (lossless round-trip)."""
    arr = X.values if isinstance(X, RearrangementMatrix) else np.asarray(X, dtype=np.float64)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join("%.17g" % x for x in row) + "\n")


def read_matrix_csv(path) -> RearrangementMatrix:
    """Parse a matrix written by :func:`write_matrix_csv`."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return RearrangementMatrix(arr)
