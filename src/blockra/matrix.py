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
        sums = arr.sum(axis=1)
        v = sample_variance(sums)
    if not math.isfinite(v):
        bad = np.flatnonzero(~np.isfinite(sums)).tolist()  # a non-finite entry's row sum is too
        if bad and not np.isfinite(arr[bad[0]]).all():
            raise ValueError("matrix entries must be finite")
        if bad:
            raise ValueError(f"row {bad[0]} sums to {sums[bad[0]]}: row sums must be finite")
        raise ValueError(f"the row-sum variance overflows: rescale {given}")
    return v


def counter_permutation(target: np.ndarray, block_sums: np.ndarray) -> np.ndarray:
    """Permutation placing block rows countermonotonically against target sums.

    Returns sigma with new_block[i] = old_block[sigma[i]]: the row whose
    target sum is smallest receives the largest block sum.  Tied targets keep
    the current relative block assignment; tied block sums go by row index, not
    where they sit, so [[1, 1, 2], [0, 0, 3]] with pi = {0} swaps its rows every call.
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
    """Canonical split bitmasks of one pass (see ``_split_of_mask``).

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


# A block of up to this many columns is summed and moved a column at a time,
# a wider one by a single gather: below it, the per-column calls cost less.
_LOOP_COLUMNS = 8


def _block_sums(arr: np.ndarray, cols: list, idx: np.ndarray) -> np.ndarray:
    """Row sums over the columns ``idx`` (intp) of ``arr``; one column is a view.

    ``cols`` is ``list(arr.T)``, in either layout.  The columns are added left
    to right, by a loop or one reduce over a C-contiguous gather; a row-major
    gather summed along its rows would add eight or more columns pairwise and
    change the last bits.
    """
    if idx.size > _LOOP_COLUMNS:
        return np.add.reduce(arr.T.take(idx, axis=0), axis=0)
    s = cols[idx[0]]
    for j in idx[1:].tolist():
        s = s + cols[j]
    return s


def _permute_rows(arr: np.ndarray, cols: list, idx: np.ndarray, sigma: np.ndarray) -> None:
    """Row i of the columns ``idx`` of ``arr`` takes their row ``sigma[i]``, in place."""
    if idx.size > _LOOP_COLUMNS:
        arr.T[idx] = arr.T.take(idx, axis=0).take(sigma, axis=1)
    else:
        for j in idx.tolist():
            cols[j][...] = cols[j][sigma]


def _block_move(arr: np.ndarray, cols: list, pi: np.ndarray, comp: np.ndarray) -> bool:
    """Apply the countermonotone rearrangement to ``arr`` (columns ``cols``) in place.

    ``pi`` and ``comp`` are intp column indices of the two blocks.  Rows of
    the complement block move jointly; the pi block is untouched.  Returns
    True when the matrix changed, which only a sigma keeping every complement
    sum in place can fail to do, so only then is the block gathered.
    """
    s_bar = _block_sums(arr, cols, comp)
    sigma = counter_permutation(_block_sums(arr, cols, pi), s_bar)
    if sigma.tobytes() == _identity_bytes(sigma.size):
        return False
    if (s_bar.take(sigma) == s_bar).all():
        block = arr.T.take(comp, axis=0)
        if (block.take(sigma, axis=1) == block).all():
            return False
    _permute_rows(arr, cols, comp, sigma)
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
    _block_move(arr, list(arr.T), np.array(pi.pi, dtype=np.intp),
                np.array(pi.complement(), dtype=np.intp))
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
