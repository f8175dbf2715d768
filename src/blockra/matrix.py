"""Core matrix model: fixed column margins, block sums, countermonotone rearrangement.

A rearrangement matrix is an m-by-n array whose columns are fixed multisets;
the only admissible operation is reordering values within columns.  Everything
else in this package (dependence diagnostics, block algorithms, oracles, the
target-sum fitting workflow) is built on the handful of primitives here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "RearrangementMatrix",
    "Partition",
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
    Invariant: entries, row sums and the row-sum variance are finite (the one
    rule, ``_row_sum_variance``), so every entry point refuses other input here;
    ``row_sum_variance`` keeps the rule's value, from the row-major ``values``.
    """

    values: np.ndarray
    row_sum_variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={arr.ndim}")
        m, n = arr.shape
        if m < 2:
            raise ValueError(f"need at least 2 rows, got m={m}")
        if n < 2:
            raise ValueError(f"need at least 2 columns, got n={n}")
        object.__setattr__(self, "row_sum_variance", _row_sum_variance(arr))
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


def _count(name: str, value, least: Optional[int] = 1) -> int:
    """``value`` as an int if an integer (numpy's too; no bool) >= ``least`` (any, if None), else ValueError."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and (least is None or value >= least)):
        kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        raise ValueError(f"{name} must be {kinds.get(least, f'an integer >= {least}')}")
    return int(value)


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
        pi = tuple(sorted(_count("pi index", j, None) for j in self.pi))
        n = _count("n_columns", self.n_columns, None)
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
        mask, n_columns = _count("mask", mask, None), _count("n_columns", n_columns, None)
        if n_columns < 2 or not 0 < mask < 1 << (n_columns - 1):
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


def _row_sum_variance(arr: np.ndarray, given: str = "the matrix") -> float:
    """``sample_variance`` of the row sums of ``arr``: the package's one overflow rule.

    ValueError, with no warning, names the first of a non-finite entry, row
    sum or variance; the last asks to rescale ``given``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _row_sums(arr)
        v = sample_variance(sums)
    if not math.isfinite(v):
        bad = np.flatnonzero(~np.isfinite(sums)).tolist()  # a non-finite entry's row sum is too
        if bad and not np.isfinite(arr[bad[0]]).all():
            raise ValueError("matrix entries must be finite")
        if bad:
            raise ValueError(f"row {bad[0]} sums to {sums[bad[0]]}: row sums must be finite")
        raise ValueError(f"the row-sum variance overflows: rescale {given}")
    return v


def _rounding_bound(arr: np.ndarray) -> float:
    """4 (n + 2) eps sum_j max|column j|: a bound on the rounding of any block or row sum of ``arr``."""
    return 4 * (arr.shape[1] + 2) * np.finfo(np.float64).eps * np.abs(arr).max(axis=0).sum()


def _counter_orders(target: np.ndarray, block_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order_pos, order_rows)`` of ``counter_permutation``: sigma[order_pos] = order_rows.

    The one tie rule: rows by block sum descending, ties by position; a stable
    sort of the targets in that order puts positions in target order and, among
    tied targets, the position holding the larger block sum first, so it keeps
    it (lexsort((-block_sums, target))'s order).  Sigma is the identity iff the two are equal.
    """
    order_rows = np.negative(block_sums).argsort(kind="stable")
    return order_rows.take(target.take(order_rows).argsort(kind="stable")), order_rows


def counter_permutation(target: np.ndarray, block_sums: np.ndarray) -> np.ndarray:
    """Permutation placing block rows countermonotonically against target sums.

    Returns sigma with new_block[i] = old_block[sigma[i]]: the row whose
    target sum is smallest receives the largest block sum.  Tied targets keep
    the current relative block assignment; tied block sums go by row index, not
    where they sit, so [[1, 1, 2], [0, 0, 3]] with pi = {0} swaps its rows every call.
    """
    order_pos, order_rows = _counter_orders(*(np.asarray(a, dtype=np.float64) for a in (target, block_sums)))
    sigma = np.empty_like(order_rows)
    sigma[order_pos] = order_rows
    return sigma


# Holds every canonical split of up to 14 columns; a full pass over more
# decodes each split again.
@functools.lru_cache(maxsize=8192)
def _mask_columns(mask: int, bits: int, offset: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columns ``offset + j`` (j < bits) whose bit j in ``mask`` is set, then those clear.

    With ``bits`` = n, the ``(pi, comp)`` split of bitmask ``mask``; a canonical
    mask (below 2^(n-1)) leaves column n-1 in ``comp``, as ``Partition.from_mask`` does.
    """
    return (tuple(offset + j for j in range(bits) if mask >> j & 1),
            tuple(offset + j for j in range(bits) if not mask >> j & 1))


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


def _fair_masks(rng: np.random.Generator, bits: int, count: int, top: int) -> list[int]:
    """``count`` bitmasks k of ``bits`` fair bits (bit j for column j) with 0 < k < top.

    The package's one fair-bit sampler: a block of the rows still missing at a
    time, so its masks and the generator's state are a row-at-a-time loop's."""
    weights = np.array([1 << j for j in range(bits)], dtype=np.int64) if bits < 64 else None
    masks: list[int] = []
    while len(masks) < count:
        rows = rng.integers(0, 2, size=(count - len(masks), bits))
        if bits >= 64:  # too wide for int64: read each row's little-endian bytes
            packed = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
        keys = (rows @ weights).tolist() if bits < 64 else [int.from_bytes(r, "little") for r in packed]
        masks += (k for k in keys if 0 < k < top)
    return masks


def _resolve_n_sim(n_sim: Optional[int], n_columns: int) -> int:
    """The one n_sim rule: splits a pass scores, None meaning up to 512, capped at all of them."""
    return min(512 if n_sim is None else n_sim, (1 << (n_columns - 1)) - 1)


def _pass_masks(n: int, n_sim: int, rng: np.random.Generator):
    """Canonical split bitmasks of one pass (see ``_mask_columns``).

    All, in order, when n_sim covers them; else the first n_sim distinct of
    the canonical draws of :func:`_fair_masks` (n-1 fair bits, zero rejected)."""
    if n_sim >= (1 << (n - 1)) - 1:
        return range(1, 1 << (n - 1))
    seen: dict[int, None] = {}  # an insertion-ordered set
    while len(seen) < n_sim:
        seen.update(dict.fromkeys(_fair_masks(rng, n - 1, n_sim - len(seen), 1 << (n - 1))))
    return list(seen)


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


def _block_sums(cols: list, idx: tuple) -> np.ndarray:
    """Row sums over the columns ``idx``, added left to right; one column is a view.

    ``cols`` is a matrix's ``list(arr.T)``, in either layout.  The one
    block-sum order, a column at a time at every width, is the order in which
    ``np.add.reduce`` adds the rows of a C-contiguous gather of the block
    (which sums a row of -0.0 to +0.0; the two zeros rank the same).
    """
    s = cols[idx[0]]
    for j in idx[1:]:
        s = s + cols[j]
    return s


def _permute_rows(cols: list, idx: tuple, sigma: np.ndarray) -> None:
    """Row i of the columns ``idx`` (views in ``cols``) takes their row ``sigma[i]``, in place."""
    for j in idx:
        cols[j][...] = cols[j][sigma]


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """Full row sums of ``arr`` in the order numpy adds the rows of a row-major array.

    The package's one row-sum rule.  Rows of eight or more entries are added
    pairwise there, so such arrays are summed from a row-major copy; shorter
    rows are added left to right in either layout.
    """
    return arr.sum(axis=1) if arr.shape[1] < 8 else np.ascontiguousarray(arr).sum(axis=1)


def _block_move(arr: np.ndarray, cols: list, pi: tuple, comp: tuple) -> bool:
    """Apply the countermonotone rearrangement to ``arr`` (columns ``cols``) in place.

    ``pi`` and ``comp`` are the column tuples of the two blocks.  Rows of
    the complement block move jointly; the pi block is untouched.  Returns
    True when the matrix changed: equal sort orders make sigma the identity,
    and only a sigma keeping every complement sum in place gathers the block.
    """
    s_bar = _block_sums(cols, comp)
    order_pos, order_rows = _counter_orders(_block_sums(cols, pi), s_bar)
    if order_pos.tobytes() == order_rows.tobytes():
        return False
    sigma = np.empty_like(order_rows)
    sigma[order_pos] = order_rows
    if (s_bar.take(sigma) == s_bar).all():
        block = arr.T.take(comp, axis=0)
        if (block.take(sigma, axis=1) == block).all():
            return False
    _permute_rows(cols, comp, sigma)
    return True


def countermonotone_rearrange(X, pi: Partition) -> RearrangementMatrix:
    """Jointly permute the complement block so its sums oppose the pi-block sums.

    The first block of ``pi`` stays fixed; rows of the complement block are
    jointly reordered so the complement sums are ordered opposite to the
    pi-block sums.  Never increases the variance of the full row sums.
    """
    mat = _as_matrix(X)
    if pi.n_columns != mat.n:
        raise ValueError(f"partition is over {pi.n_columns} columns, matrix has {mat.n}")
    arr = np.array(mat.values, copy=True)
    _block_move(arr, list(arr.T), pi.pi, pi.complement())
    out, before = RearrangementMatrix(arr), mat.row_sum_variance
    # Rearrangement inequality guarantees this up to roundoff.
    assert out.row_sum_variance <= before + 1e-12 * max(1.0, before), \
        "countermonotone rearrangement increased variance"
    return out


def write_matrix_csv(X, path) -> None:
    """Comma-separated rows, no header, 17 significant digits (lossless round-trip)."""
    arr = X.values if isinstance(X, RearrangementMatrix) else np.asarray(X, dtype=np.float64)
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> RearrangementMatrix:
    """Parse a matrix written by :func:`write_matrix_csv`."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return RearrangementMatrix(arr)
